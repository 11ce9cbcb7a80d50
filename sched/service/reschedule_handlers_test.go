package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/sched"
	"repro/sched/gen"
	"repro/sched/service"
)

// Fixture schedulers for the worker-failure regression tests: one that
// returns an error, one that panics mid-run, and one that returns
// (nil, nil) — all three must surface as the job's typed terminal error,
// never as a dead worker or a crashed process.
type failScheduler struct{ mode string }

func (s failScheduler) Name() string { return "test" + s.mode }
func (s failScheduler) Schedule(ctx context.Context, p sched.Problem, opts ...sched.Option) (*sched.Result, error) {
	switch s.mode {
	case "panic":
		panic("fixture scheduler exploded")
	case "nilresult":
		return nil, nil
	default:
		return nil, &failError{}
	}
}

type failError struct{}

func (*failError) Error() string { return "fixture scheduler failed" }

var failFixturesOnce sync.Once

func registerFailFixtures() {
	failFixturesOnce.Do(func() {
		for _, mode := range []string{"err", "panic", "nilresult"} {
			m := mode
			sched.Register(sched.Descriptor{
				Name:        "test" + m,
				Description: "test fixture: fails mid-run (" + m + ")",
				New:         func() sched.Scheduler { return failScheduler{mode: m} },
			})
		}
	})
}

// submitDone submits the paper example asynchronously and waits for it.
func submitDone(t *testing.T, client *service.Client, seed int64) *service.JobView {
	t.Helper()
	req := paperRequest(t)
	req.Seed = seed
	v, err := client.Submit(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	done, err := client.Wait(context.Background(), v.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if done.Status != service.JobDone {
		t.Fatalf("source job status %q (error: %v)", done.Status, done.Error)
	}
	return done
}

func TestRescheduleEndpointByteIdentical(t *testing.T) {
	_, client, _ := newTestService(t, service.Config{Workers: 2})
	ctx := context.Background()
	src := submitDone(t, client, 1)

	v, err := client.Reschedule(ctx, src.ID, service.RescheduleRequest{
		Delta: json.RawMessage(`{"remove_procs":["P4"]}`),
		Seed:  2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if v.Algo != "bsa" {
		t.Errorf("reschedule job algo = %q, want bsa", v.Algo)
	}
	done, err := client.Wait(ctx, v.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if done.Status != service.JobDone {
		t.Fatalf("reschedule status %q (error: %v)", done.Status, done.Error)
	}
	if done.Result == nil || done.Result.Makespan <= 0 {
		t.Fatalf("missing reschedule result: %+v", done.Result)
	}

	// The endpoint must return byte-for-byte what the library produces
	// for the same previous schedule, delta and seed.
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
	prev, err := bsa.Schedule(ctx, p, sched.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	delta, err := sched.NewDeltaBuilder().RemoveProc("P4").Build()
	if err != nil {
		t.Fatal(err)
	}
	warm, err := sched.Reschedule(ctx, *prev, delta, sched.WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	want, err := warm.Schedule.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(compact(t, done.Result.Schedule), compact(t, want)) {
		t.Error("HTTP reschedule schedule differs from the library's for the same inputs")
	}
	if done.Result.Makespan != warm.Makespan {
		t.Errorf("HTTP makespan %v != library makespan %v", done.Result.Makespan, warm.Makespan)
	}

	// The intake counters saw the delta.
	m, err := client.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m["reschedules_total"] != 1 || m["delta_remove_procs_total"] != 1 {
		t.Errorf("delta counters not collected: %v", m)
	}
}

func TestRescheduleValidation(t *testing.T) {
	_, client, _ := newTestService(t, service.Config{Workers: 2})
	ctx := context.Background()
	src := submitDone(t, client, 1)

	// Unknown source job.
	_, err := client.Reschedule(ctx, "j999999", service.RescheduleRequest{Delta: json.RawMessage(`{}`)})
	wantAPIError(t, err, http.StatusNotFound, service.CodeNotFound)

	// Missing delta document.
	_, err = client.Reschedule(ctx, src.ID, service.RescheduleRequest{})
	wantAPIError(t, err, http.StatusBadRequest, service.CodeBadRequest)

	// A delta that does not resolve against the source problem carries
	// the typed detail slug.
	_, err = client.Reschedule(ctx, src.ID, service.RescheduleRequest{Delta: json.RawMessage(`{"remove_procs":["P99"]}`)})
	wantAPIError(t, err, http.StatusBadRequest, service.CodeBadRequest)
	var apiErr *service.APIError
	if !asAPIError(err, &apiErr) || apiErr.Body.Detail != "delta_unknown_proc" {
		t.Errorf("unknown proc detail = %v", err)
	}

	// A structurally invalid delta document.
	_, err = client.Reschedule(ctx, src.ID, service.RescheduleRequest{Delta: json.RawMessage(`{"remove_procs":["P1","P1"]}`)})
	wantAPIError(t, err, http.StatusBadRequest, service.CodeBadRequest)
	if !asAPIError(err, &apiErr) || apiErr.Body.Detail != "delta_duplicate" {
		t.Errorf("duplicate removal detail = %v", err)
	}
}

func asAPIError(err error, out **service.APIError) bool {
	e, ok := err.(*service.APIError)
	if ok {
		*out = e
	}
	return ok
}

func TestRescheduleRequiresDoneJob(t *testing.T) {
	_, client, _ := newTestService(t, service.Config{Workers: 1})
	ctx := context.Background()

	// A job that fails (deadline) is terminal but has no schedule.
	req := paperRequest(t)
	req.Algo = "testsleep"
	req.TimeoutMS = 20
	v, err := client.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	failed, err := client.Wait(ctx, v.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if failed.Status != service.JobFailed {
		t.Fatalf("status %q, want failed", failed.Status)
	}
	_, err = client.Reschedule(ctx, v.ID, service.RescheduleRequest{Delta: json.RawMessage(`{}`)})
	wantAPIError(t, err, http.StatusConflict, service.CodeJobNotDone)
}

// TestJobFailureSurfacesTypedError is the worker-failure regression: a
// scheduler that errors, panics, or returns no result mid-pool must
// leave the job retrievable with a typed terminal error body — and the
// server must stay alive and able to run subsequent jobs.
func TestJobFailureSurfacesTypedError(t *testing.T) {
	registerFailFixtures()
	_, client, _ := newTestService(t, service.Config{Workers: 1})
	ctx := context.Background()

	for _, algo := range []string{"testerr", "testpanic", "testnilresult"} {
		req := paperRequest(t)
		req.Algo = algo
		v, err := client.Submit(ctx, req)
		if err != nil {
			t.Fatalf("%s: submit: %v", algo, err)
		}
		done, err := client.Wait(ctx, v.ID, 5*time.Millisecond)
		if err != nil {
			t.Fatalf("%s: wait: %v", algo, err)
		}
		if done.Status != service.JobFailed {
			t.Fatalf("%s: status %q, want failed", algo, done.Status)
		}
		if done.Error == nil || done.Error.Code != service.CodeScheduleFailed {
			t.Fatalf("%s: terminal error = %+v, want code %q", algo, done.Error, service.CodeScheduleFailed)
		}
	}

	// The pool survived all three failures: health is green and a real
	// run still completes on the same (single) worker.
	if err := client.Health(ctx); err != nil {
		t.Fatalf("server unhealthy after failing jobs: %v", err)
	}
	if _, err := client.Schedule(ctx, paperRequest(t)); err != nil {
		t.Fatalf("server cannot schedule after failing jobs: %v", err)
	}
}
