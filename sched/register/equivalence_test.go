package register

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/cpop"
	"repro/internal/dls"
	"repro/internal/heft"
	"repro/internal/schedule"
	"repro/sched"
	"repro/sched/gen"
	"repro/sched/graph"
	"repro/sched/system"
)

// instance builds the shared random problem every cross-algorithm test
// runs on.
func instance(t *testing.T) (*graph.Graph, *system.System) {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	g, err := gen.RandomLayered(80, 1.0, rng)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := system.Hypercube(3)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := system.NewRandomMinNormalized(nw, g.NumTasks(), g.NumEdges(), 1, 50, rng)
	if err != nil {
		t.Fatal(err)
	}
	return g, sys
}

func marshal(t *testing.T, s json.Marshaler) []byte {
	t.Helper()
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestLegacyEquivalence asserts the acceptance criterion of the sched
// API: every algorithm run through sched.Lookup(name).Schedule produces a
// byte-identical serialized schedule to its legacy internal entry point.
func TestLegacyEquivalence(t *testing.T) {
	g, sys := instance(t)
	const seed = 5
	legacy := map[string]func() (*schedule.Schedule, error){
		"bsa": func() (*schedule.Schedule, error) {
			r, err := core.Schedule(g, sys, core.Options{Seed: seed})
			if err != nil {
				return nil, err
			}
			return r.Schedule, nil
		},
		"bsa-full": func() (*schedule.Schedule, error) {
			r, err := core.Schedule(g, sys, core.Options{Seed: seed, UseFullRebuild: true})
			if err != nil {
				return nil, err
			}
			return r.Schedule, nil
		},
		"dls": func() (*schedule.Schedule, error) {
			r, err := dls.Schedule(g, sys, dls.Options{})
			if err != nil {
				return nil, err
			}
			return r.Schedule, nil
		},
		"heft": func() (*schedule.Schedule, error) {
			r, err := heft.Schedule(g, sys)
			if err != nil {
				return nil, err
			}
			return r.Schedule, nil
		},
		"cpop": func() (*schedule.Schedule, error) {
			r, err := cpop.Schedule(g, sys)
			if err != nil {
				return nil, err
			}
			return r.Schedule, nil
		},
	}
	for name, legacyRun := range legacy {
		t.Run(name, func(t *testing.T) {
			s, err := sched.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			res, err := s.Schedule(context.Background(),
				sched.Problem{Graph: g, System: sys}, sched.WithSeed(seed))
			if err != nil {
				t.Fatal(err)
			}
			ls, err := legacyRun()
			if err != nil {
				t.Fatal(err)
			}
			got, want := marshal(t, res.Schedule), marshal(t, ls)
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: sched and legacy schedules differ\nsched:  %.200s\nlegacy: %.200s", name, got, want)
			}
			if res.Makespan != ls.Length() {
				t.Fatalf("%s: Makespan=%v legacy=%v", name, res.Makespan, ls.Length())
			}
		})
	}
}

// TestEveryRegisteredSchedulerProducesValidSchedules is the
// cross-algorithm invariant: whatever is in the registry must produce a
// complete schedule passing the feasibility validator on a shared random
// instance, with a coherent uniform Result.
func TestEveryRegisteredSchedulerProducesValidSchedules(t *testing.T) {
	g, sys := instance(t)
	problem := sched.Problem{Graph: g, System: sys}
	descriptors := sched.List()
	if len(descriptors) < 5 {
		t.Fatalf("want >=5 registered algorithms, got %v", sched.Names())
	}
	for _, d := range descriptors {
		t.Run(d.Name, func(t *testing.T) {
			s, err := sched.Lookup(d.Name)
			if err != nil {
				t.Fatal(err)
			}
			res, err := s.Schedule(context.Background(), problem, sched.WithSeed(1))
			if err != nil {
				t.Fatal(err)
			}
			if res.Algorithm != d.Name {
				t.Errorf("Algorithm=%q, want %q", res.Algorithm, d.Name)
			}
			if res.Schedule == nil || !res.Schedule.Complete() {
				t.Fatal("incomplete schedule")
			}
			if err := res.Schedule.Validate(); err != nil {
				t.Fatalf("infeasible schedule: %v", err)
			}
			if res.Makespan != res.Schedule.Length() {
				t.Errorf("Makespan=%v, Length=%v", res.Makespan, res.Schedule.Length())
			}
			if res.Summary == "" {
				t.Error("empty Summary")
			}
			if res.Elapsed < 0 {
				t.Errorf("Elapsed=%v", res.Elapsed)
			}
		})
	}
}

// TestInvalidProblemRejected: adapters must reject mismatched problems
// before running.
func TestInvalidProblemRejected(t *testing.T) {
	g, sys := instance(t)
	small, err := gen.RandomLayered(10, 1.0, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	_ = g
	for _, name := range sched.Names() {
		s, err := sched.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		// sys is dimensioned for g, not for small.
		if _, err := s.Schedule(context.Background(), sched.Problem{Graph: small, System: sys}); err == nil {
			t.Errorf("%s: mismatched problem must fail", name)
		}
		if _, err := s.Schedule(context.Background(), sched.Problem{}); err == nil {
			t.Errorf("%s: empty problem must fail", name)
		}
	}
}

// countdownCtx reports cancellation after its Err budget is exhausted —
// a deterministic way to cancel mid-run, between two scheduling
// decisions, without racing a timer against the scheduler.
type countdownCtx struct {
	context.Context
	budget int32
}

func (c *countdownCtx) Err() error {
	if atomic.AddInt32(&c.budget, -1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestContextCancellationMidRun cancels each algorithm after a handful
// of loop iterations and expects ctx.Err() back (wrapped).
func TestContextCancellationMidRun(t *testing.T) {
	g, sys := instance(t)
	problem := sched.Problem{Graph: g, System: sys}
	for _, name := range []string{"bsa", "bsa-full", "dls", "heft", "cpop"} {
		t.Run(name, func(t *testing.T) {
			s, err := sched.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			// Budget 5: the run survives validation and the first loop
			// iterations, then aborts mid-migration/placement loop.
			ctx := &countdownCtx{Context: context.Background(), budget: 5}
			res, err := s.Schedule(ctx, problem, sched.WithSeed(1))
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err=%v, want context.Canceled", err)
			}
			if res != nil {
				t.Fatalf("res=%v, want nil on cancellation", res)
			}
		})
	}
}

// TestContextCancelledBeforeRun: an already-canceled real context aborts
// immediately for every registered algorithm.
func TestContextCancelledBeforeRun(t *testing.T) {
	g, sys := instance(t)
	problem := sched.Problem{Graph: g, System: sys}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, name := range sched.Names() {
		s, err := sched.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Schedule(ctx, problem); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err=%v, want context.Canceled", name, err)
		}
	}
}

// TestDLSInsertionOptionChangesLinkModel: WithInsertion is consumed by
// the DLS adapter and produces the (different, typically shorter)
// insertion-based schedule of dls.Options.InsertionLinks.
func TestDLSInsertionOptionChangesLinkModel(t *testing.T) {
	g, sys := instance(t)
	s, err := sched.Lookup("dls")
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Schedule(context.Background(), sched.Problem{Graph: g, System: sys}, sched.WithInsertion(true))
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := dls.Schedule(g, sys, dls.Options{InsertionLinks: true})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(marshal(t, res.Schedule), marshal(t, legacy.Schedule)) {
		t.Fatal("WithInsertion(true) does not match dls.Options{InsertionLinks: true}")
	}
}

// TestBSATraceCarriesSerializationDetail: the BSA trace exposes pivot,
// serial order and the CP/IB/OB partition, covering all tasks exactly
// once.
func TestBSATraceCarriesSerializationDetail(t *testing.T) {
	g, sys := instance(t)
	s, err := sched.Lookup("bsa")
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Schedule(context.Background(), sched.Problem{Graph: g, System: sys}, sched.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	trace, ok := res.BSA()
	if !ok {
		t.Fatalf("Trace=%T, want *sched.BSATrace", res.TraceAny())
	}
	if trace.PivotName == "" {
		t.Error("empty PivotName")
	}
	if len(trace.Serial) != g.NumTasks() {
		t.Errorf("Serial has %d tasks, want %d", len(trace.Serial), g.NumTasks())
	}
	if n := len(trace.CP) + len(trace.IB) + len(trace.OB); n != g.NumTasks() {
		t.Errorf("partition covers %d tasks, want %d", n, g.NumTasks())
	}
	if res.Stats.Get("sweeps") < 1 {
		t.Errorf("sweeps=%v", res.Stats.Get("sweeps"))
	}
	if got := res.Stats.Get("bound_skips"); got != float64(trace.BoundSkips) || trace.BoundSkips > trace.Evaluations {
		t.Errorf("bound_skips stat %v, trace %d of %d evaluations", got, trace.BoundSkips, trace.Evaluations)
	}
}
