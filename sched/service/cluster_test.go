package service_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/sched/service"
)

// In-process replica-tier tests: real listeners, real forwarding, three
// Servers sharing nothing but their member configuration. The process-
// level (SIGKILL) variant lives in tests/cluster_e2e_test.go.

// testNode is one in-process replica.
type testNode struct {
	srv    *service.Server
	client *service.Client
	addr   string
	// stop simulates node death: it kills the listener and the node's
	// outbound transport, so the stopped Server, which keeps running in
	// the test process, can no longer replicate, forward or probe either.
	// Idempotent.
	stop func()
}

// killableTransport carries a test node's inter-replica traffic until
// killed, then refuses every request.
type killableTransport struct{ killed atomic.Bool }

func (k *killableTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if k.killed.Load() {
		if req.Body != nil {
			req.Body.Close()
		}
		return nil, errors.New("test node stopped")
	}
	return http.DefaultTransport.RoundTrip(req)
}

// newTestCluster boots n replicas on kernel-picked loopback ports, each
// configured with the full member set and its own killable outbound
// transport (cfg.HTTPClient is replaced). Servers are drained at test
// end.
func newTestCluster(t *testing.T, n int, cfg service.Config) []*testNode {
	t.Helper()
	registerFixtures()
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	nodes := make([]*testNode, n)
	for i := range nodes {
		c := cfg
		c.Self = addrs[i]
		c.Peers = nil
		for j, a := range addrs {
			if j != i {
				c.Peers = append(c.Peers, a)
			}
		}
		out := &killableTransport{}
		c.HTTPClient = &http.Client{Transport: out}
		srv := service.New(c)
		hs := &http.Server{Handler: srv}
		go hs.Serve(lns[i]) //nolint:errcheck
		stopped := false
		node := &testNode{
			srv:    srv,
			client: service.NewClient("http://"+addrs[i], nil),
			addr:   addrs[i],
		}
		node.stop = func() {
			if !stopped {
				stopped = true
				out.killed.Store(true)
				hs.Close()
			}
		}
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if err := srv.Drain(ctx); err != nil {
				t.Errorf("drain %s: %v", addrs[i], err)
			}
			node.stop()
		})
		nodes[i] = node
	}
	return nodes
}

// tokenByAddr maps advertised addresses to node tokens via /v1/cluster.
func tokenByAddr(t *testing.T, node *testNode) map[string]string {
	t.Helper()
	view, err := node.client.Cluster(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string, len(view.Nodes))
	for _, n := range view.Nodes {
		out[n.Addr] = n.Token
	}
	return out
}

// jobOwnerToken extracts the owner token a job ID carries.
func jobOwnerToken(id string) string {
	tok, _, _ := strings.Cut(id, ".")
	return tok
}

// TestClusterKeyedSubmissionRouting: keyed jobs submitted through one
// replica land on their hash owner (the ID carries the owner's token),
// spread across the ring, and remain reachable through any replica.
func TestClusterKeyedSubmissionRouting(t *testing.T) {
	nodes := newTestCluster(t, 3, service.Config{Workers: 2})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	const jobs = 12
	owners := make(map[string]int) // owner token -> jobs routed there
	ids := make([]string, 0, jobs)
	for i := range jobs {
		req := paperRequest(t)
		req.Seed = int64(i)
		req.IdempotencyKey = fmt.Sprintf("route-%d", i)
		v, err := nodes[0].client.Submit(ctx, req)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		owners[jobOwnerToken(v.ID)]++
		ids = append(ids, v.ID)
	}
	if len(owners) < 2 {
		t.Errorf("12 keys all hashed to one owner: %v", owners)
	}

	// Every job is visible — and waitable — through a replica that does
	// not own it (transparent forwarding).
	for _, id := range ids {
		done, err := nodes[1].client.Wait(ctx, id, 5*time.Millisecond)
		if err != nil {
			t.Fatalf("wait %s via node 1: %v", id, err)
		}
		if done.Status != service.JobDone {
			t.Fatalf("job %s: %q (%v)", id, done.Status, done.Error)
		}
	}

	// A keyless submission stays on the replica that received it.
	keyless, err := nodes[2].client.Submit(ctx, paperRequest(t))
	if err != nil {
		t.Fatal(err)
	}
	selfToken := tokenByAddr(t, nodes[2])[nodes[2].addr]
	if got := jobOwnerToken(keyless.ID); got != selfToken {
		t.Errorf("keyless job owner token %q, want receiving node's %q", got, selfToken)
	}

	// Forwarding actually happened somewhere.
	var forwards int64
	for _, node := range nodes {
		m, err := node.client.Metrics(ctx)
		if err != nil {
			t.Fatal(err)
		}
		forwards += m["forwards_total"]
	}
	if forwards == 0 {
		t.Error("forwards_total = 0 across the cluster; routing never forwarded")
	}
}

// TestClusterIdempotencyAcrossReplicas: resubmitting a key through ANY
// replica returns the original job — the key hashes to one owner no
// matter where the duplicate lands.
func TestClusterIdempotencyAcrossReplicas(t *testing.T) {
	nodes := newTestCluster(t, 3, service.Config{Workers: 2})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	req := paperRequest(t)
	req.IdempotencyKey = "shared-key"
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, data := post(t, "http://"+nodes[0].addr, "/v1/jobs", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: http %d\n%s", resp.StatusCode, data)
	}
	var first service.JobView
	if err := json.Unmarshal(data, &first); err != nil {
		t.Fatal(err)
	}

	for i, node := range nodes {
		resp, data := post(t, "http://"+node.addr, "/v1/jobs", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("duplicate via node %d: http %d, want 200\n%s", i, resp.StatusCode, data)
		}
		var dup service.JobView
		if err := json.Unmarshal(data, &dup); err != nil {
			t.Fatal(err)
		}
		if dup.ID != first.ID {
			t.Errorf("duplicate via node %d returned %q, want %q", i, dup.ID, first.ID)
		}
	}
	if _, err := nodes[2].client.Wait(ctx, first.ID, 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}
}

// TestClusterView: every replica reports the full healthy member set,
// and a single-node server answers with the synthetic local row.
func TestClusterView(t *testing.T) {
	nodes := newTestCluster(t, 3, service.Config{Workers: 1})
	ctx := context.Background()

	view, err := nodes[0].client.Cluster(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(view.Nodes) != 3 {
		t.Fatalf("cluster view has %d nodes, want 3", len(view.Nodes))
	}
	selfRows := 0
	for _, n := range view.Nodes {
		if !n.Healthy {
			t.Errorf("node %s (%s) unhealthy in a fully-live cluster", n.Token, n.Addr)
		}
		if n.Self {
			selfRows++
			if n.Token != view.Self {
				t.Errorf("self row token %q != view.Self %q", n.Token, view.Self)
			}
			if n.Addr != nodes[0].addr {
				t.Errorf("self row addr %q, want %q", n.Addr, nodes[0].addr)
			}
		}
	}
	if selfRows != 1 {
		t.Errorf("%d self rows, want 1", selfRows)
	}

	// Single-node topology: the synthetic view.
	_, single, _ := newTestService(t, service.Config{Workers: 1})
	sv, err := single.Cluster(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if sv.Self != "local" || len(sv.Nodes) != 1 || !sv.Nodes[0].Self || !sv.Nodes[0].Healthy {
		t.Errorf("single-node cluster view = %+v", sv)
	}
}

// TestClusterBatchSplitsByOwner: one batch through one replica fans its
// keyed jobs out to their owners as sub-batches; results are identical
// to a single-node run of the same problems.
func TestClusterBatchSplitsByOwner(t *testing.T) {
	nodes := newTestCluster(t, 3, service.Config{Workers: 2})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	base := paperRequest(t)
	batch := service.BatchRequest{Graph: base.Graph, System: base.System}
	const jobs = 9
	for i := range jobs {
		batch.Jobs = append(batch.Jobs, service.ScheduleRequest{
			Seed: int64(i), IdempotencyKey: fmt.Sprintf("batch-%d", i),
		})
	}
	resp, err := nodes[0].client.SubmitBatch(ctx, batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Jobs) != jobs {
		t.Fatalf("batch returned %d items, want %d", len(resp.Jobs), jobs)
	}
	owners := make(map[string]int)
	for i, item := range resp.Jobs {
		if item.Error != nil || item.Job == nil {
			t.Fatalf("item %d rejected: %+v", i, item.Error)
		}
		owners[jobOwnerToken(item.Job.ID)]++
	}
	if len(owners) < 2 {
		t.Errorf("batch jobs all landed on one owner: %v", owners)
	}

	// Byte-identity survives the fan-out: each job matches the library
	// run for its seed, regardless of which replica computed it.
	for i, item := range resp.Jobs {
		done, err := nodes[2].client.Wait(ctx, item.Job.ID, 5*time.Millisecond)
		if err != nil {
			t.Fatalf("wait %s: %v", item.Job.ID, err)
		}
		if done.Status != service.JobDone {
			t.Fatalf("batch job %d: %q (%v)", i, done.Status, done.Error)
		}
		want, _ := paperReference(t, "bsa", int64(i))
		if !compactEqual(t, done.Result.Schedule, want) {
			t.Errorf("batch job %d schedule differs from the library's (seed %d)", i, i)
		}
	}
}

func compactEqual(t *testing.T, a, b []byte) bool {
	t.Helper()
	return string(compact(t, a)) == string(compact(t, b))
}

// TestClusterWatchForwarded: the SSE stream survives the forwarding hop
// — watching a job through a replica that does not own it still delivers
// the terminal view.
func TestClusterWatchForwarded(t *testing.T) {
	nodes := newTestCluster(t, 2, service.Config{Workers: 2})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	selfToken := tokenByAddr(t, nodes[0])[nodes[0].addr]
	var remote *service.JobView
	for i := range 32 {
		req := paperRequest(t)
		req.IdempotencyKey = fmt.Sprintf("watch-%d", i)
		v, err := nodes[0].client.Submit(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if jobOwnerToken(v.ID) != selfToken {
			remote = v
			break
		}
	}
	if remote == nil {
		t.Fatal("32 keys never hashed to the peer; ring looks degenerate")
	}
	final, err := nodes[0].client.Watch(ctx, remote.ID, nil)
	if err != nil {
		t.Fatalf("watch forwarded job: %v", err)
	}
	if final.Status != service.JobDone || final.Result == nil {
		t.Fatalf("forwarded watch final view = %+v", final)
	}
}

// TestClusterBatchOwnerErrorPropagated: an owner that is reachable but
// answers a forwarded sub-batch with a top-level typed error (here a
// draining replica's 503 shutting_down) has that exact code passed
// through to each of its items — not mislabeled upstream_unavailable,
// which is reserved for owners we could not get an answer from.
func TestClusterBatchOwnerErrorPropagated(t *testing.T) {
	registerFixtures()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	// A stub "draining owner": answers every request with the envelope a
	// real draining replica sends.
	stubLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	stub := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintf(w, `{"error":{"code":%q,"message":"server is draining"}}`, service.CodeShuttingDown)
	})}
	go stub.Serve(stubLn) //nolint:errcheck
	defer stub.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := service.New(service.Config{Workers: 2, Self: ln.Addr().String(), Peers: []string{stubLn.Addr().String()}})
	hs := &http.Server{Handler: srv}
	go hs.Serve(ln) //nolint:errcheck
	defer hs.Close()
	defer func() {
		if err := srv.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	}()
	client := service.NewClient("http://"+ln.Addr().String(), nil)

	// Enough keyed jobs that both ring tokens own some.
	var batch service.BatchRequest
	for i := range 16 {
		req := paperRequest(t)
		req.IdempotencyKey = fmt.Sprintf("prop-%d", i)
		batch.Jobs = append(batch.Jobs, req)
	}
	resp, err := client.SubmitBatch(ctx, batch)
	if err != nil {
		t.Fatal(err)
	}
	accepted, drainingHits := 0, 0
	for i, item := range resp.Jobs {
		switch {
		case item.Job != nil:
			accepted++
		case item.Error != nil && item.Error.Code == service.CodeShuttingDown:
			drainingHits++
		default:
			t.Errorf("item %d: error %+v, want the owner's shutting_down passed through", i, item.Error)
		}
	}
	if accepted == 0 || drainingHits == 0 {
		t.Errorf("accepted=%d drainingHits=%d; 16 keys never split across both owners", accepted, drainingHits)
	}
}

// TestClusterDeadOwner: requests owned by an unreachable replica fail
// fast with 502 upstream_unavailable, and the cluster view marks the
// node unhealthy — while jobs owned by the survivors keep completing.
func TestClusterDeadOwner(t *testing.T) {
	nodes := newTestCluster(t, 3, service.Config{Workers: 2})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	deadToken := tokenByAddr(t, nodes[0])[nodes[2].addr]
	nodes[2].stop()

	sawDead := false
	for i := range 48 {
		req := paperRequest(t)
		req.IdempotencyKey = fmt.Sprintf("dead-%d", i)
		v, err := nodes[0].client.Submit(ctx, req)
		if err != nil {
			wantAPIError(t, err, http.StatusBadGateway, service.CodeUpstreamUnavailable)
			sawDead = true
			continue
		}
		// Survivor-owned: must still complete normally.
		done, werr := nodes[1].client.Wait(ctx, v.ID, 5*time.Millisecond)
		if werr != nil {
			t.Fatalf("wait %s: %v", v.ID, werr)
		}
		if done.Status != service.JobDone {
			t.Fatalf("survivor job %s: %q (%v)", v.ID, done.Status, done.Error)
		}
	}
	if !sawDead {
		t.Error("48 keys never hashed to the dead node; 502 path untested")
	}

	// Status lookups routed at the dead owner fail the same way.
	_, err := nodes[0].client.Job(ctx, deadToken+".j1")
	wantAPIError(t, err, http.StatusBadGateway, service.CodeUpstreamUnavailable)

	// The health probe notices.
	view, err := nodes[0].client.Cluster(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range view.Nodes {
		if n.Token == deadToken && n.Healthy {
			t.Error("dead node still reported healthy")
		}
	}
}

// TestClusterModeEdgeAnswers pins cluster-mode answers no other test
// covers. A single-node server refuses replication pushes and treats a
// job ID carrying a foreign token as unknown: only a clustered server
// routes by token. A clustered replica running with Replicas 1 refuses
// replication pushes but still folds reconciliation pushes into its own
// store.
func TestClusterModeEdgeAnswers(t *testing.T) {
	wantError := func(t *testing.T, what string, status int, data []byte, wantStatus int, code, msg string) {
		t.Helper()
		var env struct {
			Error *service.ErrorBody `json:"error"`
		}
		if err := json.Unmarshal(data, &env); err != nil || env.Error == nil {
			t.Fatalf("%s: http %d, body %q is no error envelope", what, status, data)
		}
		if status != wantStatus || env.Error.Code != code || !strings.Contains(env.Error.Message, msg) {
			t.Errorf("%s: http %d %q (%s), want http %d %q containing %q",
				what, status, env.Error.Code, env.Error.Message, wantStatus, code, msg)
		}
	}
	getRaw := func(t *testing.T, url string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, data
	}
	push := []byte(`{"origin":"deadbeef","records":[]}`)

	_, _, single := newTestService(t, service.Config{Workers: 1})
	resp, data := post(t, single, "/v1/internal/replicate", push)
	wantError(t, "single-node replicate", resp.StatusCode, data, http.StatusBadRequest, service.CodeBadRequest, "replication requires cluster mode")
	const foreign = "deadbeef.j1"
	for _, path := range []string{"/v1/jobs/" + foreign, "/v1/jobs/" + foreign + "/events"} {
		status, data := getRaw(t, single+path)
		wantError(t, "single-node GET "+path, status, data, http.StatusNotFound, service.CodeNotFound, foreign)
	}
	resp, data = post(t, single, "/v1/jobs/"+foreign+"/reschedule", []byte(`{"delta":{"remove_procs":["P1"]}}`))
	wantError(t, "single-node reschedule", resp.StatusCode, data, http.StatusNotFound, service.CodeNotFound, foreign)

	nodes := newTestCluster(t, 2, service.Config{Workers: 1, Replicas: 1})
	base := "http://" + nodes[0].addr
	resp, data = post(t, base, "/v1/internal/replicate", push)
	wantError(t, "Replicas 1 replicate", resp.StatusCode, data, http.StatusBadRequest, service.CodeBadRequest, "replication disabled on this replica (-replicas 1)")

	now := time.Now().UTC()
	var recs []*service.Record
	for _, id := range []string{"deadbeef.j7", "deadbeef.j8"} {
		recs = append(recs, &service.Record{
			ID: id, Kind: service.KindSchedule, Algo: "bsa", Status: service.JobFailed,
			Error:     &service.ErrorBody{Code: service.CodeScheduleFailed, Message: "failed on the old owner"},
			CreatedAt: now, DoneAt: now,
		})
	}
	body, err := json.Marshal(map[string]any{"origin": "deadbeef", "reconcile": true, "records": recs})
	if err != nil {
		t.Fatal(err)
	}
	resp, data = post(t, base, "/v1/internal/replicate", body)
	if resp.StatusCode != http.StatusOK || string(compact(t, data)) != `{"records":2}` {
		t.Fatalf("Replicas 1 reconcile: http %d %s, want 200 {\"records\":2}", resp.StatusCode, data)
	}
	m, err := nodes[0].client.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if m["reconciles_total"] != 2 {
		t.Errorf("reconciles_total = %d, want 2", m["reconciles_total"])
	}
	// The token names no member, so the lookup is served from this
	// node's store, where the reconciled record now lives.
	v, err := nodes[0].client.Job(context.Background(), "deadbeef.j7")
	if err != nil {
		t.Fatalf("reconciled record: %v", err)
	}
	if v.Status != service.JobFailed || v.Error == nil || v.Error.Message != "failed on the old owner" {
		t.Errorf("reconciled record view = %+v", v)
	}
}
