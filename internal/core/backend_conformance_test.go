package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"repro/sched/graph"
	"repro/sched/system"
)

// The backend conformance suite: both schedule-state backends, forced
// through Options.backend whatever the density rule would pick, must
// produce byte-identical schedules AND byte-identical migration traces to
// the full-rebuild oracle on every topology, from both entry points (cold
// Schedule and warm Reschedule), and must unwind cleanly when canceled
// mid-cone-update.

// conformanceBackends are the backends every conformance test forces.
var conformanceBackends = []string{backendReference, backendSoA}

// namedSystem is one target system of the conformance suite.
type namedSystem struct {
	name string
	sys  *system.System
}

// conformanceSystems returns the systems the suite runs g on: a random
// connected topology of m processors and the paper's four topology
// families (ring, hypercube, fully connected, random), each with random
// heterogeneity, in a fixed order so rng consumption is deterministic.
func conformanceSystems(t *testing.T, rng *rand.Rand, g *graph.Graph, m int) []namedSystem {
	t.Helper()
	out := []namedSystem{{"random-m", randomSystem(t, rng, g, m)}}
	topos := paperTopologies(rng)
	names := make([]string, 0, len(topos))
	for name := range topos {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		sys, err := system.NewRandom(topos[name], g.NumTasks(), g.NumEdges(), 1, 10, rng)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, namedSystem{name, sys})
	}
	return out
}

// TestBackendConformanceMatrix runs the oracle-equivalence matrix against
// both backends on every conformance topology: same schedule, same
// trajectory, same commit-attempt trace.
func TestBackendConformanceMatrix(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomConnectedDAG(rng, 20+int(seed)*8, 0.12)
		for _, ns := range conformanceSystems(t, rng, g, 3+int(seed)) {
			oracle, err := Schedule(g, ns.sys, Options{Seed: seed, UseFullRebuild: true, RecordTrace: true})
			if err != nil {
				t.Fatal(err)
			}
			for _, be := range conformanceBackends {
				label := fmt.Sprintf("seed=%d topo=%s backend=%s", seed, ns.name, be)
				r, err := Schedule(g, ns.sys, Options{Seed: seed, backend: be, RecordTrace: true})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				assertSchedulesIdentical(t, label, oracle, r)
				assertTracesIdentical(t, label, oracle, r)
			}
		}
	}
}

// warmFromCold adopts a cold run's result as a warm-start ground truth.
func warmFromCold(cold *Result, dirty []graph.TaskID) WarmStart {
	warm := WarmStart{
		Serial: cold.Serial,
		Assign: make([]system.ProcID, len(cold.Schedule.Tasks)),
		Routes: make([][]system.LinkID, len(cold.Schedule.Msgs)),
		Dirty:  dirty,
	}
	for i := range cold.Schedule.Tasks {
		warm.Assign[i] = cold.Schedule.Tasks[i].Proc
	}
	for e := range cold.Schedule.Msgs {
		for _, h := range cold.Schedule.Msgs[e].Hops {
			warm.Routes[e] = append(warm.Routes[e], h.Link)
		}
	}
	return warm
}

// TestBackendConformanceWarmStart checks the warm-start entry point: both
// backends reconverging from the same adopted ground truth and dirty
// frontier must produce byte-identical schedules and traces on every
// conformance topology.
func TestBackendConformanceWarmStart(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		g := randomConnectedDAG(rng, 40, 0.12)
		for _, ns := range conformanceSystems(t, rng, g, 5) {
			cold, err := Schedule(g, ns.sys, Options{Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			// Dirty a deterministic spread of tasks so reconvergence has
			// real work at several ranks.
			var dirty []graph.TaskID
			for i := 0; i < g.NumTasks(); i += 3 {
				dirty = append(dirty, graph.TaskID(i))
			}
			warm := warmFromCold(cold, dirty)
			var base *Result
			for _, be := range conformanceBackends {
				label := fmt.Sprintf("seed=%d topo=%s backend=%s", seed, ns.name, be)
				r, err := Reschedule(g, ns.sys, warm, Options{backend: be, RecordTrace: true})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if base == nil {
					base = r
					continue
				}
				assertSchedulesIdentical(t, label, base, r)
				assertTracesIdentical(t, label, base, r)
			}
		}
	}
}

// countdownCtx is a context whose Err() flips to Canceled after a fixed
// number of polls, so cancellation lands at a deterministic point inside
// the run — including between items of a single cone update, which is
// exactly the window the bounded-interval polling exists for.
type countdownCtx struct {
	context.Context
	mu    sync.Mutex
	calls int
	limit int
	err   error
}

func (c *countdownCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return c.err
	}
	c.calls++
	if c.calls >= c.limit {
		c.err = context.Canceled
	}
	return c.err
}

// TestBackendCancelMidUpdate sweeps the cancellation point across the run
// for both backends on every conformance topology: each countdown either
// cancels the run — which must surface context.Canceled without
// panicking, even when the cut lands between two timeline mutations of
// one cone update — or never fires, in which case the result must be
// byte-identical to the uncanceled run.
func TestBackendCancelMidUpdate(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := randomConnectedDAG(rng, 120, 0.1)
	for _, ns := range conformanceSystems(t, rng, g, 6) {
		for _, be := range conformanceBackends {
			opt := Options{Seed: 9, backend: be}
			baseline, err := Schedule(g, ns.sys, opt)
			if err != nil {
				t.Fatal(err)
			}
			for _, limit := range []int{1, 2, 3, 5, 10, 50, 1 << 30} {
				ctx := &countdownCtx{Context: context.Background(), limit: limit}
				r, err := ScheduleContext(ctx, g, ns.sys, opt)
				assertCanceledOrIdentical(t, fmt.Sprintf("topo=%s backend=%s limit=%d", ns.name, be, limit), baseline, r, err)
			}
		}
	}
}

// TestBackendCancelMidUpdateWarm is the warm-start variant: the
// reconvergence loop and its cone updates must also unwind cleanly.
func TestBackendCancelMidUpdateWarm(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	g := randomConnectedDAG(rng, 100, 0.1)
	for _, ns := range conformanceSystems(t, rng, g, 5) {
		cold, err := Schedule(g, ns.sys, Options{Seed: 10})
		if err != nil {
			t.Fatal(err)
		}
		var dirty []graph.TaskID
		for i := 0; i < g.NumTasks(); i += 2 {
			dirty = append(dirty, graph.TaskID(i))
		}
		warm := warmFromCold(cold, dirty)
		for _, be := range conformanceBackends {
			opt := Options{backend: be}
			baseline, err := Reschedule(g, ns.sys, warm, opt)
			if err != nil {
				t.Fatal(err)
			}
			for _, limit := range []int{1, 2, 3, 5, 10, 50, 1 << 30} {
				ctx := &countdownCtx{Context: context.Background(), limit: limit}
				r, err := RescheduleContext(ctx, g, ns.sys, warm, opt)
				assertCanceledOrIdentical(t, fmt.Sprintf("topo=%s backend=%s limit=%d", ns.name, be, limit), baseline, r, err)
			}
		}
	}
}

// assertCanceledOrIdentical fails unless a countdown run either canceled
// cleanly (context.Canceled, no result) or completed byte-identical to
// the uncanceled baseline.
func assertCanceledOrIdentical(t *testing.T, label string, baseline, r *Result, err error) {
	t.Helper()
	switch {
	case err != nil:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: got error %v, want context.Canceled", label, err)
		}
		if r != nil {
			t.Fatalf("%s: canceled run returned a result", label)
		}
	default:
		assertSchedulesIdentical(t, label, baseline, r)
	}
}

// TestWarmFrontierArrivalShiftPropagates pins the dirty-frontier expansion
// against a specific hazard: a commit that shifts a message's *arrival*
// without moving the receiving task's slot. The receiver re-derives
// identically this update (another in-edge dominates its data-ready time),
// so it never enters updTasks — but its migration decision inputs changed,
// so the frontier expansion must still mark it via the message change
// list. A frontier that only follows moved tasks would silently leave the
// receiver stale.
func TestWarmFrontierArrivalShiftPropagates(t *testing.T) {
	// D feeds R over a long cross-link message that dominates R's
	// data-ready time; A feeds B feeds R on a side chain. Migrating A to a
	// processor where it runs slower pushes B later, shifting the
	// intra-processor B->R arrival — while R's slot, pinned by D->R, does
	// not move.
	b := graph.NewBuilder()
	tD := b.AddTask("D", 10)
	tA := b.AddTask("A", 2)
	tB := b.AddTask("B", 1)
	tR := b.AddTask("R", 1)
	eAB := b.AddEdge(tA, tB, 1)
	eBR := b.AddEdge(tB, tR, 1)
	eDR := b.AddEdge(tD, tR, 50)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	nw, err := system.FullyConnected(4)
	if err != nil {
		t.Fatal(err)
	}
	const p0, p1, p2, p3 = system.ProcID(0), system.ProcID(1), system.ProcID(2), system.ProcID(3)
	sys := system.NewUniform(nw, g.NumTasks(), g.NumEdges())
	sys.Exec[tA][p2] = 2 // A runs 2x slower on P2: migrating it there moves B's start

	l01, ok := nw.LinkBetween(p0, p1)
	if !ok {
		t.Fatal("no link P0-P1")
	}
	l31, ok := nw.LinkBetween(p3, p1)
	if !ok {
		t.Fatal("no link P3-P1")
	}
	serial := []graph.TaskID{tD, tA, tB, tR}
	assign := []system.ProcID{p3, p0, p1, p1}
	routes := make([][]system.LinkID, g.NumEdges())
	routes[eAB] = []system.LinkID{l01}
	routes[eBR] = nil // intra-processor
	routes[eDR] = []system.LinkID{l31}

	for _, be := range conformanceBackends {
		en := newWarmEngine(g, sys, serial, assign, routes, engineConfig{
			pruneRoutes: true,
			guardSlack:  DefaultGuardSlack,
			backend:     be,
		})
		oldR := en.s.Tasks[tR]
		oldArr := en.s.Msgs[eBR].Arrival
		if !en.commitMigration(tA, p2, false) {
			t.Fatalf("backend=%s: unguarded migration not kept", be)
		}
		if en.s.Msgs[eBR].Arrival == oldArr {
			t.Fatalf("backend=%s: test shape broken: B->R arrival did not shift", be)
		}
		if len(en.s.Msgs[eBR].Hops) != 0 {
			t.Fatalf("backend=%s: test shape broken: B->R grew hops", be)
		}
		if en.s.Tasks[tR] != oldR {
			t.Fatalf("backend=%s: test shape broken: R's slot moved: %+v -> %+v", be, oldR, en.s.Tasks[tR])
		}
		for _, u := range en.updTasks {
			if u == tR {
				t.Fatalf("backend=%s: test shape broken: R entered updTasks", be)
			}
		}
		ds := newDirtySet(g.NumTasks())
		ds.expand(en)
		if !ds.flag[tR] {
			t.Fatalf("backend=%s: arrival-shifted receiver R not marked dirty by frontier expansion", be)
		}
	}
}
