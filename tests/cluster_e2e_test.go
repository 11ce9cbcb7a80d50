package tests

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/sched"
	"repro/sched/gen"
	_ "repro/sched/register"
	"repro/sched/service"
)

// Process-level proofs for the PR-7 subsystem: WAL durability across a
// SIGKILL and the three-replica tier losing a node mid-backlog. The
// in-process variants (httptest servers) live in sched/service; these
// run the real schedd binary, real sockets, real kill(2).

// paperScheduleRef runs the library directly and returns the schedule
// bytes schedd must serve for the paper example at the given seed.
func paperScheduleRef(t *testing.T, seed int64) []byte {
	t.Helper()
	g := gen.PaperExampleGraph()
	sys := gen.PaperExampleSystem(g)
	p, err := sched.NewProblem(g, sys)
	if err != nil {
		t.Fatal(err)
	}
	bsa, err := sched.Lookup("bsa")
	if err != nil {
		t.Fatal(err)
	}
	res, err := bsa.Schedule(context.Background(), p, sched.WithSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	doc, err := res.Schedule.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestScheddWALRestart: submit a backlog against a WAL-backed schedd,
// SIGKILL it mid-work, reboot on the same data directory — every
// accepted job must reach done under its original ID with the exact
// schedule bytes the interrupted run would have produced.
func TestScheddWALRestart(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go tool not on PATH")
	}
	dir := t.TempDir()
	schedd := buildCmd(t, dir, "schedd")
	_, _, gdoc, sdoc := paperDocs(t, dir)
	data := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	baseURL, cmd, _ := startSchedd(t, schedd, "-workers", "1", "-store", "wal", "-data", data)
	client := service.NewClient(baseURL, nil)

	const n = 6
	var ids []string
	for i := 0; i < n; i++ {
		v, err := client.Submit(ctx, service.ScheduleRequest{
			Graph: gdoc, System: sdoc, Seed: int64(i),
			IdempotencyKey: fmt.Sprintf("restart-%d", i),
		})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids = append(ids, v.ID)
	}

	// SIGKILL: no drain, no WAL compaction, no goodbye. Whatever reached
	// the log is all the next process gets.
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait() //nolint:errcheck

	baseURL2, _, _ := startSchedd(t, schedd, "-workers", "1", "-store", "wal", "-data", data)
	client2 := service.NewClient(baseURL2, nil)
	for i, id := range ids {
		done, err := client2.Wait(ctx, id, 10*time.Millisecond)
		if err != nil {
			t.Fatalf("wait %s after restart: %v", id, err)
		}
		if done.Status != service.JobDone {
			t.Fatalf("job %s after restart: %q (%v)", id, done.Status, done.Error)
		}
		if got, want := compactJSON(t, done.Result.Schedule), compactJSON(t, paperScheduleRef(t, int64(i))); !bytes.Equal(got, want) {
			t.Errorf("job %s schedule differs from the library's after restart", id)
		}
	}

	// The idempotency keys survived the reboot too: resubmitting returns
	// the finished originals instead of scheduling again.
	v, err := client2.Submit(ctx, service.ScheduleRequest{
		Graph: gdoc, System: sdoc, Seed: 0, IdempotencyKey: "restart-0",
	})
	if err != nil {
		t.Fatal(err)
	}
	if v.ID != ids[0] {
		t.Errorf("resubmitted key returned %q, want original %q", v.ID, ids[0])
	}
}

// freePorts reserves n distinct loopback ports by binding and releasing
// them. The tiny race against other processes is acceptable in tests.
func freePorts(t *testing.T, n int) []int {
	t.Helper()
	ports := make([]int, n)
	for i := range ports {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ports[i] = ln.Addr().(*net.TCPAddr).Port
		ln.Close()
	}
	return ports
}

// TestScheddClusterKillOneOfThree: a three-replica tier with -replicas 2
// loses one node with work outstanding. Once the failure detector
// declares it dead, EVERY accepted job — the dead owner's included —
// must reach done through the survivors with schedule bytes identical
// to a single-node (library) run, with zero 502s. Restarting the victim
// on its WAL reconciles without duplicate execution: resubmitting its
// keys returns the original IDs.
func TestScheddClusterKillOneOfThree(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go tool not on PATH")
	}
	dir := t.TempDir()
	schedd := buildCmd(t, dir, "schedd")
	_, _, gdoc, sdoc := paperDocs(t, dir)
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()

	ports := freePorts(t, 3)
	addrs := make([]string, 3)
	dataDirs := make([]string, 3)
	for i, p := range ports {
		addrs[i] = fmt.Sprintf("127.0.0.1:%d", p)
		dataDirs[i] = t.TempDir()
	}
	start := func(i int) (*service.Client, *exec.Cmd) {
		var peers []string
		for j, a := range addrs {
			if j != i {
				peers = append(peers, a)
			}
		}
		// startSchedd prepends -addr 127.0.0.1:0; the later -addr here wins
		// (flag keeps the last value), so the replica binds the reserved
		// port its peers were configured to reach.
		baseURL, cmd, _ := startSchedd(t, schedd,
			"-addr", addrs[i],
			"-workers", "1",
			"-store", "wal", "-data", dataDirs[i],
			"-peers", strings.Join(peers, ","),
			"-replicas", "2",
			"-probe-interval", "100ms",
			"-probe-timeout", "250ms",
			"-probe-misses", "2",
		)
		return service.NewClient(baseURL, nil), cmd
	}
	cmds := make([]*exec.Cmd, 3)
	clients := make([]*service.Client, 3)
	for i := range addrs {
		clients[i], cmds[i] = start(i)
	}

	// Sanity before submitting: all three replicas see each other healthy,
	// so a later failure means a real death, not a wiring mistake.
	view, err := clients[0].Cluster(ctx)
	if err != nil {
		t.Fatal(err)
	}
	healthy := 0
	for _, n := range view.Nodes {
		if n.Healthy {
			healthy++
		}
	}
	if healthy != 3 {
		t.Fatalf("cluster not fully healthy at start: %+v", view.Nodes)
	}

	tokenOf := make(map[string]string) // token -> addr
	for _, n := range view.Nodes {
		tokenOf[n.Token] = n.Addr
	}

	// Backlog: 24 keyed jobs, all submitted through replica 0, hashed
	// across the ring. With -replicas 2 each accept streamed the job's
	// record to its owner's ring successor before the 202 came back.
	const n = 24
	type submitted struct {
		id   string
		seed int64
		key  string
	}
	var jobs []submitted
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("kill-%d", i)
		v, err := clients[0].Submit(ctx, service.ScheduleRequest{
			Graph: gdoc, System: sdoc, Seed: int64(i),
			IdempotencyKey: key,
		})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		jobs = append(jobs, submitted{id: v.ID, seed: int64(i), key: key})
	}

	// SIGKILL replica 2 with the backlog outstanding.
	deadAddr := addrs[2]
	deadToken := ""
	for tok, addr := range tokenOf {
		if addr == deadAddr {
			deadToken = tok
		}
	}
	if deadToken == "" {
		t.Fatalf("dead node %s not in cluster view %v", deadAddr, tokenOf)
	}
	if err := cmds[2].Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmds[2].Wait() //nolint:errcheck

	// Wait for the survivors' failure detectors to declare it dead; from
	// then on routing sends the dead owner's references to its successor.
	waitState := func(addr, state string) {
		t.Helper()
		deadline := time.Now().Add(time.Minute)
		for {
			view, err := clients[0].Cluster(ctx)
			if err != nil {
				t.Fatalf("cluster view: %v", err)
			}
			for _, node := range view.Nodes {
				if node.Addr == addr && node.State == state {
					return
				}
			}
			if time.Now().After(deadline) {
				t.Fatalf("node %s never reached state %q", addr, state)
			}
			time.Sleep(50 * time.Millisecond)
		}
	}
	waitState(deadAddr, "dead")

	// Every accepted job completes with the library's exact bytes — the
	// dead owner's jobs through replication and failover. The client has
	// no retry policy: a single 502 fails the test.
	deadOwned := 0
	for _, job := range jobs {
		token, _, _ := strings.Cut(job.id, ".")
		if token == deadToken {
			deadOwned++
		}
		done, err := clients[0].Wait(ctx, job.id, 10*time.Millisecond)
		if err != nil {
			t.Fatalf("wait %s (owner %s, dead %s): %v", job.id, token, deadToken, err)
		}
		if done.Status != service.JobDone {
			t.Fatalf("job %s: %q (%v)", job.id, done.Status, done.Error)
		}
		if got, want := compactJSON(t, done.Result.Schedule), compactJSON(t, paperScheduleRef(t, job.seed)); !bytes.Equal(got, want) {
			t.Errorf("job %s schedule differs from the library's (seed %d)", job.id, job.seed)
		}
	}
	if deadOwned == 0 {
		t.Error("no jobs owned by the dead node; ring distribution looks broken")
	}
	t.Logf("killed %s: all %d jobs completed (%d dead-owned, served via failover)", deadToken, n, deadOwned)

	// The survivors' breakers and detector left their fingerprints.
	var failovers, adopted int64
	for i := 0; i < 2; i++ {
		m, err := clients[i].Metrics(ctx)
		if err != nil {
			t.Fatalf("metrics %d: %v", i, err)
		}
		failovers += m["failovers_total"]
		adopted += m["adopted_jobs_total"]
	}
	if failovers < 1 {
		t.Errorf("failovers_total = %d across survivors, want >= 1", failovers)
	}

	// Owner returns on the same WAL and address: replay plus
	// reconciliation must converge without duplicate execution —
	// resubmitting the dead node's keys yields the ORIGINAL job IDs.
	clients[2], cmds[2] = start(2)
	waitState(deadAddr, "alive")
	for _, job := range jobs {
		token, _, _ := strings.Cut(job.id, ".")
		if token != deadToken {
			continue
		}
		v, err := clients[2].Submit(ctx, service.ScheduleRequest{
			Graph: gdoc, System: sdoc, Seed: job.seed,
			IdempotencyKey: job.key,
		})
		if err != nil {
			t.Fatalf("resubmit %s after owner restart: %v", job.key, err)
		}
		if v.ID != job.id {
			t.Errorf("resubmitted key %s returned %q, want original %q (duplicate execution)", job.key, v.ID, job.id)
		}
	}

	// Graceful exit: all three drain clean.
	for i := 0; i < 3; i++ {
		if err := cmds[i].Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if err := cmds[i].Wait(); err != nil {
			t.Errorf("replica %d exited with %v after SIGTERM", i, err)
		}
	}
	_ = adopted // informational: adoption only fires when pending work was outstanding
}
