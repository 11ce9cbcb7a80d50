package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/sched"
	"repro/sched/gen"
	"repro/sched/graph"
	"repro/sched/service"
	"repro/sched/system"
)

// Tests for the server-wide compile cache: what it counts, what it never
// caches, and that sharing compiled problems across requests changes no
// schedule.

// compileCounts reads the compile cache counters.
func compileCounts(t *testing.T, client *service.Client) (hits, misses int64) {
	t.Helper()
	m, err := client.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return m["compile_hits_total"], m["compile_misses_total"]
}

func TestCompileCacheCountsRepeatedSubmission(t *testing.T) {
	_, client, _ := newTestService(t, service.Config{Workers: 1})
	ctx := context.Background()
	if _, err := client.Schedule(ctx, paperRequest(t)); err != nil {
		t.Fatal(err)
	}
	hits, misses := compileCounts(t, client)
	if hits != 0 || misses != 1 {
		t.Fatalf("first submission: hits %d misses %d, want 0 and 1", hits, misses)
	}
	req := paperRequest(t)
	req.Seed = 2
	if _, err := client.Schedule(ctx, req); err != nil {
		t.Fatal(err)
	}
	if h, m := compileCounts(t, client); h != hits+1 || m != misses {
		t.Errorf("second identical submission: hits %d→%d misses %d→%d, want one hit and no miss", hits, h, misses, m)
	}
}

// TestCompileCacheNeverCachesFailures submits documents that fail to
// compile twice each: both answers must be the same typed 400, and both
// must count as misses, so nothing was cached in between.
func TestCompileCacheNeverCachesFailures(t *testing.T) {
	_, client, _ := newTestService(t, service.Config{Workers: 1})
	ctx := context.Background()

	// Decodes as a system, but its factor matrices are sized for the
	// paper's 9-task graph, not for this 24-task one.
	misfit := topoRequest(t, nil)
	misfit.System = paperRequest(t).System
	badGraph := paperRequest(t)
	badGraph.Graph = json.RawMessage(`{"tasks":[{"id":"T1","exec":-4}]}`)
	cases := map[string]service.ScheduleRequest{"invalid graph": badGraph, "system misfits graph": misfit}

	for name, req := range cases {
		t.Run(name, func(t *testing.T) {
			hits, misses := compileCounts(t, client)
			var bodies []service.ErrorBody
			for i := 0; i < 2; i++ {
				var err error
				if i == 0 {
					_, err = client.Schedule(ctx, req)
				} else {
					_, err = client.Submit(ctx, req)
				}
				wantAPIError(t, err, http.StatusBadRequest, service.CodeBadRequest)
				var apiErr *service.APIError
				errors.As(err, &apiErr)
				bodies = append(bodies, apiErr.Body)
			}
			if bodies[0] != bodies[1] {
				t.Errorf("the second answer differs from the first: %+v vs %+v", bodies[1], bodies[0])
			}
			if h, m := compileCounts(t, client); h != hits || m != misses+2 {
				t.Errorf("hits %d→%d misses %d→%d, want no hit and two misses", hits, h, misses, m)
			}
		})
	}
}

// libraryBytes schedules p with BSA in-process and returns the schedule
// document the service must reproduce.
func libraryBytes(t *testing.T, p sched.Problem, seed int64) []byte {
	t.Helper()
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

// TestCompileCacheConcurrentIntakeByteIdentical races sync, async and
// batch submissions of one problem, each path at every seed, and checks
// every schedule against the library's bytes. Under -race it also
// checks the cache's locking.
func TestCompileCacheConcurrentIntakeByteIdentical(t *testing.T) {
	_, client, _ := newTestService(t, service.Config{Workers: 4})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	het := topoRequest(t, &service.TopoSpecWire{Kind: "mesh", Procs: 6, Rows: 2})
	het.Het = &service.HetSpec{Lo: 1, Hi: 20, Seed: 5}
	g, err := graph.FromJSON(het.Graph)
	if err != nil {
		t.Fatal(err)
	}
	mesh, err := gen.TopoKindByName("mesh")
	if err != nil {
		t.Fatal(err)
	}
	nw, err := gen.Topology(gen.TopoSpec{Kind: mesh, Procs: 6, Rows: 2}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := system.NewRandomMinNormalized(nw, g.NumTasks(), g.NumEdges(), 1, 20, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	paper := gen.PaperExampleGraph()
	problems := []struct {
		req service.ScheduleRequest
		p   sched.Problem
	}{
		{paperRequest(t), sched.Problem{Graph: paper, System: gen.PaperExampleSystem(paper)}},
		{het, sched.Problem{Graph: g, System: sys}},
	}
	const seeds = 3
	var wg sync.WaitGroup
	errs := make(chan error, 64) // at most 9 failures per problem, so no send blocks
	for pi, pr := range problems {
		want := make([][]byte, seeds+1)
		for seed := int64(1); seed <= seeds; seed++ {
			want[seed] = libraryBytes(t, pr.p, seed)
		}
		check := func(path string, seed int64, res *service.ScheduleResponse) {
			if res == nil || !bytes.Equal(res.Schedule, want[seed]) {
				errs <- fmt.Errorf("problem %d %s seed %d: schedule differs from the library's bytes", pi, path, seed)
			}
		}
		watch := func(path string, seed int64, id string) {
			v, err := client.Watch(ctx, id, nil)
			if err != nil {
				errs <- err
				return
			}
			check(path, seed, v.Result)
		}
		for seed := int64(1); seed <= seeds; seed++ {
			req := pr.req
			req.Seed = seed
			wg.Add(2)
			go func() {
				defer wg.Done()
				res, err := client.Schedule(ctx, req)
				if err != nil {
					errs <- err
					return
				}
				check("sync", req.Seed, res)
			}()
			go func() {
				defer wg.Done()
				v, err := client.Submit(ctx, req)
				if err != nil {
					errs <- err
					return
				}
				watch("async", req.Seed, v.ID)
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			batch := service.BatchRequest{Graph: pr.req.Graph, System: pr.req.System, Topo: pr.req.Topo, Het: pr.req.Het}
			for seed := int64(1); seed <= seeds; seed++ {
				batch.Jobs = append(batch.Jobs, service.ScheduleRequest{Seed: seed})
			}
			resp, err := client.SubmitBatch(ctx, batch)
			if err != nil {
				errs <- err
				return
			}
			for i, it := range resp.Jobs {
				if it.Error != nil {
					errs <- it.Error
					continue
				}
				watch("batch", int64(i+1), it.Job.ID)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestCompileCacheSystemSurvivesReschedule reschedules a job with an
// exec-factor delta, whose post-delta system must be a fresh copy, then
// resubmits the original documents: the cached system they hit must
// still schedule to the first job's bytes.
func TestCompileCacheSystemSurvivesReschedule(t *testing.T) {
	_, client, _ := newTestService(t, service.Config{Workers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	first := submitDone(t, client, 1)
	// Slow the first task down a hundredfold on its processor.
	var doc struct {
		Tasks []struct{ Task, Proc string }
	}
	if err := json.Unmarshal(first.Result.Schedule, &doc); err != nil {
		t.Fatal(err)
	}
	delta := fmt.Sprintf(`{"exec_factors":[{"task":%q,"proc":%q,"factor":100}]}`, doc.Tasks[0].Task, doc.Tasks[0].Proc)
	re, err := client.Reschedule(ctx, first.ID, service.RescheduleRequest{Delta: json.RawMessage(delta), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	moved, err := client.Watch(ctx, re.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if moved.Status != service.JobDone {
		t.Fatalf("reschedule: %q (%v)", moved.Status, moved.Error)
	}
	if bytes.Equal(moved.Result.Schedule, first.Result.Schedule) {
		t.Fatal("the delta left the schedule unchanged; it cannot show a mutated system")
	}
	hits, _ := compileCounts(t, client)
	again := submitDone(t, client, 1)
	if h, _ := compileCounts(t, client); h != hits+1 {
		t.Fatalf("the resubmission missed the cache (hits %d→%d)", hits, h)
	}
	if !bytes.Equal(again.Result.Schedule, first.Result.Schedule) {
		t.Error("resubmitting the documents after the reschedule changed the schedule")
	}
}
