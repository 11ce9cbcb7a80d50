package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/sched"
	"repro/sched/gen"
	"repro/sched/service"
)

// Tests for the traffic-shape surface: idempotency keys, batch
// submission, the SSE event stream, and store replay on boot.

// paperReference runs the library directly for the paper example and
// returns the schedule bytes the service must reproduce verbatim.
func paperReference(t *testing.T, algo string, seed int64) ([]byte, float64) {
	t.Helper()
	g := gen.PaperExampleGraph()
	sys := gen.PaperExampleSystem(g)
	p, err := sched.NewProblem(g, sys)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.Lookup(algo)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Schedule(context.Background(), p, sched.WithSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	doc, err := res.Schedule.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return doc, res.Makespan
}

// TestIdempotentSubmitReturnsOriginalJob pins the duplicate-POST
// contract on the wire: the first keyed submission is accepted with 202,
// the duplicate answers 200 with the original job — same ID, nothing
// scheduled twice.
func TestIdempotentSubmitReturnsOriginalJob(t *testing.T) {
	_, client, baseURL := newTestService(t, service.Config{Workers: 2})
	ctx := context.Background()

	req := paperRequest(t)
	req.IdempotencyKey = "sweep-42"
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}

	resp, data := post(t, baseURL, "/v1/jobs", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first keyed submit: http %d, want 202\n%s", resp.StatusCode, data)
	}
	var first service.JobView
	if err := json.Unmarshal(data, &first); err != nil {
		t.Fatal(err)
	}

	resp, data = post(t, baseURL, "/v1/jobs", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("duplicate keyed submit: http %d, want 200\n%s", resp.StatusCode, data)
	}
	var dup service.JobView
	if err := json.Unmarshal(data, &dup); err != nil {
		t.Fatal(err)
	}
	if dup.ID != first.ID {
		t.Errorf("duplicate returned job %q, want original %q", dup.ID, first.ID)
	}

	// The duplicate still answers with the job's terminal view once it
	// finished — idempotency is not just an accept-time dedup.
	done, err := client.Wait(ctx, first.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if done.Status != service.JobDone {
		t.Fatalf("job status %q (%v)", done.Status, done.Error)
	}
	resp, data = post(t, baseURL, "/v1/jobs", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("late duplicate: http %d, want 200", resp.StatusCode)
	}
	if err := json.Unmarshal(data, &dup); err != nil {
		t.Fatal(err)
	}
	if dup.Status != service.JobDone || dup.Result == nil {
		t.Errorf("late duplicate view = %+v, want the terminal result", dup)
	}

	// A different key is a different job.
	req.IdempotencyKey = "sweep-43"
	other, err := client.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if other.ID == first.ID {
		t.Error("distinct keys shared a job")
	}

	m, err := client.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m["idempotent_hits_total"] != 2 {
		t.Errorf("idempotent_hits_total = %d, want 2", m["idempotent_hits_total"])
	}
	if m["jobs_accepted"] != 2 {
		t.Errorf("jobs_accepted = %d, want 2 (duplicates must not be accepted)", m["jobs_accepted"])
	}
}

// TestSyncJobsNeverPersisted: POST /v1/schedule must leave no trace in
// the store — its job IDs are never disclosed, so a persisted record
// would be unreachable garbage (and a WAL write on the sync hot path).
func TestSyncJobsNeverPersisted(t *testing.T) {
	ms := service.NewMemStore()
	_, client, _ := newTestService(t, service.Config{Workers: 2, Store: ms})
	ctx := context.Background()

	if _, err := client.Schedule(ctx, paperRequest(t)); err != nil {
		t.Fatal(err)
	}
	if ms.Len() != 0 {
		t.Errorf("store holds %d records after a sync schedule, want 0", ms.Len())
	}
	if _, err := client.Submit(ctx, paperRequest(t)); err != nil {
		t.Fatal(err)
	}
	if ms.Len() != 1 {
		t.Errorf("store holds %d records after an async submit, want 1", ms.Len())
	}
}

// TestBatchEndpoint: top-level documents fan out as per-job defaults,
// jobs are accepted or rejected independently, and every accepted job's
// schedule is byte-identical to the library's for the same inputs.
func TestBatchEndpoint(t *testing.T) {
	_, client, _ := newTestService(t, service.Config{Workers: 2})
	ctx := context.Background()

	base := paperRequest(t)
	batch := service.BatchRequest{
		Graph:  base.Graph,
		System: base.System,
		Jobs: []service.ScheduleRequest{
			{Seed: 1},                  // inherits graph+system, default algo
			{Seed: 2, Algo: "heft"},    // same documents, different algorithm
			{Seed: 3, Algo: "no-such"}, // rejected without failing the batch
		},
	}
	resp, err := client.SubmitBatch(ctx, batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Jobs) != 3 {
		t.Fatalf("batch response carries %d items, want 3", len(resp.Jobs))
	}
	if item := resp.Jobs[2]; item.Job != nil || item.Error == nil || item.Error.Code != service.CodeUnknownAlgorithm {
		t.Errorf("bad job's item = %+v, want an unknown_algorithm error", item)
	}
	for i, algo := range map[int]string{0: "bsa", 1: "heft"} {
		item := resp.Jobs[i]
		if item.Error != nil || item.Job == nil {
			t.Fatalf("item %d rejected: %+v", i, item.Error)
		}
		done, err := client.Wait(ctx, item.Job.ID, 5*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if done.Status != service.JobDone {
			t.Fatalf("batch job %d status %q (%v)", i, done.Status, done.Error)
		}
		want, wantMakespan := paperReference(t, algo, int64(i+1))
		if !bytes.Equal(compact(t, done.Result.Schedule), compact(t, want)) {
			t.Errorf("batch job %d schedule differs from the library's (%s seed %d)", i, algo, i+1)
		}
		if done.Result.Makespan != wantMakespan {
			t.Errorf("batch job %d makespan %v, want %v", i, done.Result.Makespan, wantMakespan)
		}
	}

	// An empty batch is a request error, not an empty success.
	_, err = client.SubmitBatch(ctx, service.BatchRequest{})
	wantAPIError(t, err, http.StatusBadRequest, service.CodeBadRequest)

	m, err := client.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m["batches_total"] != 1 || m["batch_jobs_total"] != 3 {
		t.Errorf("batch counters = %d batches / %d jobs, want 1/3", m["batches_total"], m["batch_jobs_total"])
	}
	// Size 3 lands in every bucket from le_4 up.
	if m["batch_size_le_1"] != 0 || m["batch_size_le_4"] != 1 || m["batch_size_le_inf"] != 1 {
		t.Errorf("batch histogram = le_1:%d le_4:%d le_inf:%d, want 0/1/1",
			m["batch_size_le_1"], m["batch_size_le_4"], m["batch_size_le_inf"])
	}
}

// TestBatchIdempotencyKeys: keys dedupe inside and across batches just
// like single submissions.
func TestBatchIdempotencyKeys(t *testing.T) {
	_, client, _ := newTestService(t, service.Config{Workers: 2})
	ctx := context.Background()

	base := paperRequest(t)
	batch := service.BatchRequest{
		Graph:  base.Graph,
		System: base.System,
		Jobs: []service.ScheduleRequest{
			{Seed: 1, IdempotencyKey: "bk-1"},
			{Seed: 2, IdempotencyKey: "bk-2"},
		},
	}
	first, err := client.SubmitBatch(ctx, batch)
	if err != nil {
		t.Fatal(err)
	}
	again, err := client.SubmitBatch(ctx, batch)
	if err != nil {
		t.Fatal(err)
	}
	for i := range first.Jobs {
		if first.Jobs[i].Job == nil || again.Jobs[i].Job == nil {
			t.Fatalf("item %d rejected: %+v / %+v", i, first.Jobs[i].Error, again.Jobs[i].Error)
		}
		if first.Jobs[i].Job.ID != again.Jobs[i].Job.ID {
			t.Errorf("item %d resubmission made a new job: %q vs %q",
				i, first.Jobs[i].Job.ID, again.Jobs[i].Job.ID)
		}
	}
	m, err := client.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m["jobs_accepted"] != 2 {
		t.Errorf("jobs_accepted = %d, want 2", m["jobs_accepted"])
	}
}

// TestJobEventsStream follows a gated job over SSE: the stream must
// deliver a non-terminal view while the job is held, then the terminal
// view — with the full result — once the gate opens, and then end.
func TestJobEventsStream(t *testing.T) {
	_, client, _ := newTestService(t, service.Config{Workers: 2})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	gate := armGate()
	req := paperRequest(t)
	req.Algo = "testgate"
	v, err := client.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}

	type outcome struct {
		final *service.JobView
		seen  []service.JobStatus
		err   error
	}
	res := make(chan outcome, 1)
	attached := make(chan struct{})
	go func() {
		var o outcome
		o.final, o.err = client.Watch(ctx, v.ID, func(view *service.JobView) {
			if len(o.seen) == 0 {
				close(attached)
			}
			o.seen = append(o.seen, view.Status)
		})
		res <- o
	}()

	// Open the gate only after the stream delivered its first (gated,
	// hence non-terminal) view, so the ordering assertion is
	// deterministic.
	select {
	case <-attached:
	case <-ctx.Done():
		t.Fatal("watcher never received a view")
	}
	close(gate)

	o := <-res
	if o.err != nil {
		t.Fatalf("watch: %v", o.err)
	}
	if o.final.Status != service.JobDone || o.final.Result == nil {
		t.Fatalf("final view = %+v, want done with a result", o.final)
	}
	if len(o.seen) < 2 || o.seen[0].Terminal() {
		t.Errorf("statuses %v: want a non-terminal view before the terminal one", o.seen)
	}
	if last := o.seen[len(o.seen)-1]; last != service.JobDone {
		t.Errorf("last streamed status = %q, want done", last)
	}

	// Byte-identity holds over the stream too.
	want, _ := paperReference(t, "bsa", 1)
	if !bytes.Equal(compact(t, o.final.Result.Schedule), compact(t, want)) {
		t.Error("streamed schedule differs from the library's")
	}

	// Watching an already-finished job yields its terminal view
	// immediately; watching an unknown job is a 404.
	final, err := client.Watch(ctx, v.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != service.JobDone {
		t.Errorf("re-watch status %q, want done", final.Status)
	}
	_, err = client.Watch(ctx, "j999999", nil)
	wantAPIError(t, err, http.StatusNotFound, service.CodeNotFound)
}

// TestStoreReplayOnBoot boots a server on a store holding a finished
// job, a pending schedule job, and a pending reschedule job — the state
// a crashed process leaves behind. The pending jobs must re-run under
// their original IDs and produce byte-identical schedules to the
// library; the finished job must stay servable.
func TestStoreReplayOnBoot(t *testing.T) {
	registerFixtures()
	ms := service.NewMemStore()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// First life: accept and finish one job, then shut down.
	srv1 := service.New(service.Config{Workers: 1, Store: ms})
	ts1 := httptest.NewServer(srv1)
	client1 := service.NewClient(ts1.URL, nil)
	src, err := client1.Submit(ctx, paperRequest(t))
	if err != nil {
		t.Fatal(err)
	}
	done, err := client1.Wait(ctx, src.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if done.Status != service.JobDone {
		t.Fatalf("source job: %q (%v)", done.Status, done.Error)
	}
	if err := srv1.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	ts1.Close()

	// Seed the store with the crash shapes by hand: a pending schedule
	// job and a pending reschedule hanging off the finished one.
	req := paperRequest(t)
	pending := &service.Record{
		ID: "j50", Kind: service.KindSchedule, Algo: "bsa",
		Status: service.JobQueued, Request: &req, CreatedAt: time.Now(),
	}
	if err := ms.Put(pending); err != nil {
		t.Fatal(err)
	}
	resched := &service.Record{
		ID: "j51", Kind: service.KindReschedule, Algo: "bsa",
		Status: service.JobQueued, Delta: json.RawMessage(`{"remove_procs":["P4"]}`),
		Seed: 7, SourceID: src.ID, CreatedAt: time.Now(),
	}
	if err := ms.Put(resched); err != nil {
		t.Fatal(err)
	}

	// Second life: New replays the store.
	srv2 := service.New(service.Config{Workers: 1, Store: ms})
	ts2 := httptest.NewServer(srv2)
	t.Cleanup(func() {
		drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv2.Drain(drainCtx); err != nil {
			t.Errorf("drain: %v", err)
		}
		ts2.Close()
	})
	client2 := service.NewClient(ts2.URL, nil)

	// The finished job is still there, result intact.
	old, err := client2.Job(ctx, src.ID)
	if err != nil {
		t.Fatal(err)
	}
	if old.Status != service.JobDone || old.Result == nil {
		t.Fatalf("finished job after reboot = %+v", old)
	}

	// The pending schedule job re-ran to the library's exact bytes.
	replayed, err := client2.Wait(ctx, "j50", 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if replayed.Status != service.JobDone {
		t.Fatalf("replayed job: %q (%v)", replayed.Status, replayed.Error)
	}
	want, _ := paperReference(t, "bsa", 1)
	if !bytes.Equal(compact(t, replayed.Result.Schedule), compact(t, want)) {
		t.Error("replayed schedule differs from the library's")
	}

	// The pending reschedule recomputed its lineage: source result from
	// the stored recipe, then the warm-started delta — byte-identical to
	// driving the library by hand.
	relife, err := client2.Wait(ctx, "j51", 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if relife.Status != service.JobDone {
		t.Fatalf("replayed reschedule: %q (%v)", relife.Status, relife.Error)
	}
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
	delta, err := sched.DeltaFromJSON([]byte(`{"remove_procs":["P4"]}`))
	if err != nil {
		t.Fatal(err)
	}
	warm, err := sched.Reschedule(ctx, *prev, delta, sched.WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	wantWarm, err := warm.Schedule.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(compact(t, relife.Result.Schedule), compact(t, wantWarm)) {
		t.Error("replayed reschedule schedule differs from the library's")
	}

	m, err := client2.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m["store_replays_total"] != 2 {
		t.Errorf("store_replays_total = %d, want 2", m["store_replays_total"])
	}

	// The replayed runs must write their terminal transitions back to the
	// store. The client-visible "done" races the store write by a hair
	// (the runtime job turns terminal first), so poll briefly.
	for _, id := range []string{"j50", "j51"} {
		deadline := time.Now().Add(5 * time.Second)
		for {
			rec, ok := ms.Get(id)
			if ok && rec.Status.Terminal() {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("store record %s never turned terminal after its replayed run (got %+v, %v)", id, rec, ok)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	// Third life: with every record terminal, boot replays nothing — the
	// jobs must not run a second time.
	srv3 := service.New(service.Config{Workers: 1, Store: ms})
	ts3 := httptest.NewServer(srv3)
	defer ts3.Close()
	client3 := service.NewClient(ts3.URL, nil)
	m3, err := client3.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m3["store_replays_total"] != 0 {
		t.Errorf("store_replays_total on third boot = %d, want 0 (terminal transition not persisted?)", m3["store_replays_total"])
	}
	if err := srv3.Drain(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestWALRestartLineage is the in-process half of the restart story the
// e2e test proves across real processes: schedule, reschedule, drain,
// reboot on the same directory — both results must still be served, and
// the lineage must survive another reschedule hop.
func TestWALRestartLineage(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	w1 := openWAL(t, dir)
	srv1 := service.New(service.Config{Workers: 1, Store: w1})
	ts1 := httptest.NewServer(srv1)
	client1 := service.NewClient(ts1.URL, nil)

	src, err := client1.Submit(ctx, paperRequest(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client1.Wait(ctx, src.ID, 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	re, err := client1.Reschedule(ctx, src.ID, service.RescheduleRequest{
		Delta: json.RawMessage(`{"remove_procs":["P4"]}`), Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	first, err := client1.Wait(ctx, re.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if first.Status != service.JobDone {
		t.Fatalf("reschedule: %q (%v)", first.Status, first.Error)
	}
	// Drain closes the WAL — the clean-shutdown path.
	if err := srv1.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	ts1.Close()

	w2 := openWAL(t, dir)
	srv2 := service.New(service.Config{Workers: 1, Store: w2})
	ts2 := httptest.NewServer(srv2)
	t.Cleanup(func() {
		drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv2.Drain(drainCtx); err != nil {
			t.Errorf("drain: %v", err)
		}
		ts2.Close()
	})
	client2 := service.NewClient(ts2.URL, nil)

	reborn, err := client2.Job(ctx, re.ID)
	if err != nil {
		t.Fatal(err)
	}
	if reborn.Status != service.JobDone || reborn.Result == nil {
		t.Fatalf("reschedule after reboot = %+v", reborn)
	}
	if !bytes.Equal(compact(t, reborn.Result.Schedule), compact(t, first.Result.Schedule)) {
		t.Error("reschedule result changed across the restart")
	}

	// The lineage is still live: rescheduling off the restored job works,
	// recomputing the chain from stored recipes.
	re2, err := client2.Reschedule(ctx, re.ID, service.RescheduleRequest{
		Delta: json.RawMessage(`{"exec_factors":[{"task":"T1","proc":"P1","factor":2}]}`), Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	hop, err := client2.Wait(ctx, re2.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if hop.Status != service.JobDone || hop.Result == nil || hop.Result.Makespan <= 0 {
		t.Fatalf("second-hop reschedule after reboot = %+v (%v)", hop, hop.Error)
	}
}
