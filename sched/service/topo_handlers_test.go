package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"net/http"
	"testing"
	"time"

	"repro/sched"
	"repro/sched/gen"
	"repro/sched/service"
	"repro/sched/system"
)

// topoRequest builds a wire request whose system is generated
// server-side from a named topology family.
func topoRequest(t *testing.T, spec *service.TopoSpecWire) service.ScheduleRequest {
	t.Helper()
	g, err := gen.Generate(gen.Spec{Kind: gen.Random, Size: 24, Granularity: 1}, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	gdoc, err := g.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return service.ScheduleRequest{Graph: gdoc, Topo: spec, Seed: 1}
}

// TestScheduleByNamedTopology proves schedule-by-name reaches every
// registered family and returns byte-for-byte what the library produces
// when the client builds the same topology itself.
func TestScheduleByNamedTopology(t *testing.T) {
	_, client, _ := newTestService(t, service.Config{Workers: 2})
	ctx := context.Background()
	for _, kind := range []string{"mesh", "torus", "fattree", "hierarchical", "random"} {
		req := topoRequest(t, &service.TopoSpecWire{Kind: kind, Procs: 8, Seed: 2})
		res, err := client.Schedule(ctx, req)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}

		tk, err := gen.TopoKindByName(kind)
		if err != nil {
			t.Fatal(err)
		}
		nw, err := gen.Topology(gen.TopoSpec{Kind: tk, Procs: 8}, rand.New(rand.NewSource(2)))
		if err != nil {
			t.Fatal(err)
		}
		g, err := gen.Generate(gen.Spec{Kind: gen.Random, Size: 24, Granularity: 1}, rand.New(rand.NewSource(4)))
		if err != nil {
			t.Fatal(err)
		}
		p, err := sched.NewProblem(g, system.NewUniform(nw, g.NumTasks(), g.NumEdges()))
		if err != nil {
			t.Fatal(err)
		}
		bsa, err := sched.Lookup("bsa")
		if err != nil {
			t.Fatal(err)
		}
		direct, err := bsa.Schedule(ctx, p, sched.WithSeed(1))
		if err != nil {
			t.Fatal(err)
		}
		want, err := direct.Schedule.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(compact(t, res.Schedule), compact(t, want)) {
			t.Errorf("%s: HTTP schedule differs from the library's for the same named topology", kind)
		}
		if res.Makespan != direct.Makespan {
			t.Errorf("%s: HTTP makespan %v != library %v", kind, res.Makespan, direct.Makespan)
		}
	}
}

func TestScheduleTopoWithHet(t *testing.T) {
	_, client, _ := newTestService(t, service.Config{Workers: 2})
	req := topoRequest(t, &service.TopoSpecWire{Kind: "torus", Procs: 9})
	req.Het = &service.HetSpec{Lo: 1, Hi: 50, Seed: 7}
	res, err := client.Schedule(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	// Determinism: the same spec + het seed must reproduce the makespan.
	res2, err := client.Schedule(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != res2.Makespan {
		t.Errorf("heterogeneous named topology not deterministic: %v vs %v", res.Makespan, res2.Makespan)
	}
}

func TestScheduleTopoErrors(t *testing.T) {
	_, client, _ := newTestService(t, service.Config{})
	ctx := context.Background()

	// Unknown family: 400 with the typed detail slug, and the message
	// must enumerate the valid kinds.
	_, err := client.Schedule(ctx, topoRequest(t, &service.TopoSpecWire{Kind: "banyan", Procs: 8}))
	var apiErr *service.APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("want *service.APIError, got %v", err)
	}
	if apiErr.StatusCode != http.StatusBadRequest || apiErr.Body.Detail != "unknown_topo_kind" {
		t.Fatalf("got http %d detail %q, want 400 unknown_topo_kind", apiErr.StatusCode, apiErr.Body.Detail)
	}

	// Topo and Topology together are ambiguous.
	req := topoRequest(t, &service.TopoSpecWire{Kind: "ring", Procs: 4})
	req.Topology = json.RawMessage(`{"procs":["P1"],"links":[]}`)
	_, err = client.Schedule(ctx, req)
	wantAPIError(t, err, http.StatusBadRequest, service.CodeBadRequest)

	// Infeasible spec (fat-tree with no leaves) fails fast.
	_, err = client.Schedule(ctx, topoRequest(t, &service.TopoSpecWire{Kind: "fattree", Procs: 4, Spines: 4}))
	wantAPIError(t, err, http.StatusBadRequest, service.CodeBadRequest)
}

// TestBatchTopoDefault proves the batch-level Topo default is inherited
// by jobs that carry no system source of their own.
func TestBatchTopoDefault(t *testing.T) {
	_, client, _ := newTestService(t, service.Config{Workers: 2})
	ctx := context.Background()
	req := topoRequest(t, nil)
	batch := service.BatchRequest{
		Graph: req.Graph,
		Topo:  &service.TopoSpecWire{Kind: "hierarchical", Procs: 8, Groups: 2},
		Jobs:  []service.ScheduleRequest{{Seed: 1}, {Algo: "heft", Seed: 2}},
	}
	resp, err := client.SubmitBatch(ctx, batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Jobs) != 2 {
		t.Fatalf("got %d items, want 2", len(resp.Jobs))
	}
	for i, item := range resp.Jobs {
		if item.Error != nil {
			t.Fatalf("job %d rejected: %v", i, item.Error)
		}
		final, err := client.Wait(ctx, item.Job.ID, 10*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if final.Status != service.JobDone {
			t.Fatalf("job %d status %s: %+v", i, final.Status, final.Error)
		}
		if final.Result.Makespan <= 0 {
			t.Errorf("job %d makespan %v", i, final.Result.Makespan)
		}
	}
}
