package tests

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/sched/gen"
	"repro/sched/service"
)

// buildCmd compiles a command of this module into dir and returns the
// binary path.
func buildCmd(t *testing.T, dir, name string) string {
	t.Helper()
	bin := filepath.Join(dir, name)
	build := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
	build.Dir = ".." // repo root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build %s:\n%s\nerror: %v", name, out, err)
	}
	return bin
}

// startSchedd launches the daemon on a kernel-chosen port and returns
// its base URL plus the running process. The caller owns shutdown.
func startSchedd(t *testing.T, bin string, extraArgs ...string) (string, *exec.Cmd, *bytes.Buffer) {
	t.Helper()
	baseURL, _, cmd, errBuf := startScheddDebug(t, bin, extraArgs...)
	return baseURL, cmd, errBuf
}

// startScheddDebug is startSchedd that also returns the base URL of the
// daemon's -debug-addr listener, empty when it announced none.
func startScheddDebug(t *testing.T, bin string, extraArgs ...string) (string, string, *exec.Cmd, *bytes.Buffer) {
	t.Helper()
	args := append([]string{"-addr", "127.0.0.1:0"}, extraArgs...)
	cmd := exec.Command(bin, args...)
	var errBuf bytes.Buffer
	cmd.Stderr = &errBuf
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill() //nolint:errcheck
			cmd.Wait()         //nolint:errcheck
		}
	})

	// schedd announces its debug listener, if any, and then its bound
	// address, one stdout line each.
	type urls struct{ base, debug string }
	sc := bufio.NewScanner(stdout)
	addrCh := make(chan urls, 1)
	go func() {
		debug := ""
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, "schedd: debug listening on "); ok {
				debug = "http://" + rest
			}
			if rest, ok := strings.CutPrefix(line, "schedd: listening on "); ok {
				addrCh <- urls{"http://" + rest, debug}
			}
		}
		close(addrCh)
	}()
	select {
	case u, ok := <-addrCh:
		if !ok {
			t.Fatalf("schedd exited before announcing its address; stderr:\n%s", errBuf.String())
		}
		return u.base, u.debug, cmd, &errBuf
	case <-time.After(30 * time.Second):
		t.Fatalf("schedd did not announce its address; stderr:\n%s", errBuf.String())
		return "", "", nil, nil
	}
}

// paperDocs writes the paper example's graph and full-system documents
// to dir and returns their paths plus the raw bytes.
func paperDocs(t *testing.T, dir string) (gpath, spath string, gdoc, sdoc []byte) {
	t.Helper()
	g := gen.PaperExampleGraph()
	sys := gen.PaperExampleSystem(g)
	var gbuf, sbuf bytes.Buffer
	if err := g.WriteJSON(&gbuf); err != nil {
		t.Fatal(err)
	}
	if err := sys.WriteJSON(&sbuf); err != nil {
		t.Fatal(err)
	}
	gpath = filepath.Join(dir, "paper-graph.json")
	spath = filepath.Join(dir, "paper-system.json")
	if err := os.WriteFile(gpath, gbuf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(spath, sbuf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return gpath, spath, gbuf.Bytes(), sbuf.Bytes()
}

func compactJSON(t *testing.T, data []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.Compact(&buf, data); err != nil {
		t.Fatalf("compact: %v\ninput: %s", err, data)
	}
	return buf.Bytes()
}

// TestScheddEndToEnd is the extmodule-style proof for the service
// subsystem: it builds the real schedd and bsasched binaries, schedules
// the paper's worked example over HTTP through service.Client, and
// checks the wire schedule is byte-identical to what cmd/bsasched -json
// prints for the same problem. Then it submits async work and SIGTERMs
// the daemon mid-stream: schedd must finish every accepted job and exit
// zero.
func TestScheddEndToEnd(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go tool not on PATH")
	}
	dir := t.TempDir()
	schedd := buildCmd(t, dir, "schedd")
	bsasched := buildCmd(t, dir, "bsasched")
	gpath, spath, gdoc, sdoc := paperDocs(t, dir)

	baseURL, debugURL, cmd, errBuf := startScheddDebug(t, schedd, "-workers", "2", "-debug-addr", "127.0.0.1:0")
	client := service.NewClient(baseURL, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	if err := client.Health(ctx); err != nil {
		t.Fatalf("health: %v", err)
	}
	algos, err := client.Algos(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(algos) < 5 {
		t.Fatalf("algos = %v, want the five built-ins", algos)
	}

	// The acceptance check: schedd's schedule for the paper example is
	// byte-identical to cmd/bsasched's for the same inputs and seed.
	res, err := client.Schedule(ctx, service.ScheduleRequest{
		Algo: "bsa", Graph: gdoc, System: sdoc, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ref := exec.Command(bsasched, "-graph", gpath, "-system", spath, "-algo", "bsa", "-seed", "1", "-json")
	refOut, err := ref.Output()
	if err != nil {
		t.Fatalf("bsasched -json: %v", err)
	}
	if got, want := compactJSON(t, res.Schedule), compactJSON(t, refOut); !bytes.Equal(got, want) {
		t.Errorf("HTTP schedule != bsasched -json schedule\nhttp:     %s\nbsasched: %s", got, want)
	}
	if res.Makespan <= 0 {
		t.Errorf("makespan = %v", res.Makespan)
	}

	// Async jobs across every algorithm, then SIGTERM with work pending.
	var ids []string
	for i, algo := range []string{"bsa", "bsa-full", "dls", "heft", "cpop"} {
		v, err := client.Submit(ctx, service.ScheduleRequest{
			Algo: algo, Graph: gdoc, System: sdoc, Seed: int64(i),
		})
		if err != nil {
			t.Fatalf("submit %s: %v", algo, err)
		}
		ids = append(ids, v.ID)
	}
	// Wait for the submitted jobs so their results are retrievable before
	// the daemon exits (its store dies with the process).
	for _, id := range ids {
		v, err := client.Wait(ctx, id, 20*time.Millisecond)
		if err != nil {
			t.Fatalf("wait %s: %v", id, err)
		}
		if v.Status != service.JobDone {
			t.Fatalf("job %s: %q (%v)", id, v.Status, v.Error)
		}
	}

	// -debug-addr serves the runtime profiles on their own listener.
	if debugURL == "" {
		t.Fatal("schedd -debug-addr announced no debug listener")
	}
	resp, err := http.Get(debugURL + "/debug/pprof/heap")
	if err != nil {
		t.Fatal(err)
	}
	heap, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || len(heap) == 0 {
		t.Fatalf("GET /debug/pprof/heap: http %d, %d bytes, %v", resp.StatusCode, len(heap), err)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	waitErr := make(chan error, 1)
	go func() { waitErr <- cmd.Wait() }()
	select {
	case err := <-waitErr:
		if err != nil {
			t.Fatalf("schedd exited with %v after SIGTERM; stderr:\n%s", err, errBuf.String())
		}
	case <-time.After(time.Minute):
		cmd.Process.Kill() //nolint:errcheck
		t.Fatalf("schedd did not drain within a minute of SIGTERM; stderr:\n%s", errBuf.String())
	}
}

// TestScheddDrainsQueuedJobsOnSigterm: SIGTERM with jobs still queued
// must not lose them — schedd keeps serving nothing new but finishes the
// backlog before exiting 0.
func TestScheddDrainsQueuedJobsOnSigterm(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go tool not on PATH")
	}
	dir := t.TempDir()
	schedd := buildCmd(t, dir, "schedd")
	_, _, gdoc, sdoc := paperDocs(t, dir)

	baseURL, cmd, errBuf := startSchedd(t, schedd, "-workers", "1")
	client := service.NewClient(baseURL, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	// Stack up a backlog on a single worker, then SIGTERM immediately:
	// the daemon must run all of it down before exiting.
	const n = 20
	for i := 0; i < n; i++ {
		if _, err := client.Submit(ctx, service.ScheduleRequest{
			Graph: gdoc, System: sdoc, Seed: int64(i),
		}); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("schedd exited with %v (backlog lost?); stderr:\n%s", err, errBuf.String())
	}
	if !cmd.ProcessState.Success() {
		t.Fatalf("schedd exit status %v", cmd.ProcessState)
	}
}
