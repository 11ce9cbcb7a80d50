package core

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/sched/gen"
	"repro/sched/graph"
	"repro/sched/system"
)

// paperTopologies are the four topology families of the paper's
// evaluation, at a size suitable for property testing.
func paperTopologies(rng *rand.Rand) map[string]*system.Network {
	build := func(nw *system.Network, err error) *system.Network {
		if err != nil {
			panic(err)
		}
		return nw
	}
	return map[string]*system.Network{
		"ring": build(system.Ring(8)),
		"cube": build(system.Hypercube(3)),
		"full": build(system.FullyConnected(8)),
		"rand": build(system.RandomConnected(8, 1, 8, rng)),
	}
}

// TestIncrementalTraceEquivalence is the incremental engine's trajectory
// property test: across regular and random graph families, all four
// topology families and heterogeneity on/off, it must produce a
// byte-identical serialized schedule AND an identical step-by-step
// migration trace to the full-rebuild oracle, which rebuilds every
// timeline and evaluates every candidate entry in full. A stale cone
// update or a wrongly settled entry would divert the trace at the first
// affected decision, so trace equality localizes such bugs far better
// than end-state checks.
func TestIncrementalTraceEquivalence(t *testing.T) {
	for _, kind := range []gen.Kind{gen.GaussElim, gen.Random} {
		for seed := int64(0); seed < 3; seed++ {
			rng := rand.New(rand.NewSource(seed*31 + int64(kind)))
			g, err := gen.Generate(gen.Spec{Kind: kind, Size: 45, Granularity: 1.0}, rng)
			if err != nil {
				t.Fatal(err)
			}
			for name, nw := range paperTopologies(rng) {
				for _, heterogeneous := range []bool{false, true} {
					label := fmt.Sprintf("kind=%v seed=%d topo=%s hetero=%v", kind, seed, name, heterogeneous)
					var sys *system.System
					if heterogeneous {
						sys, err = system.NewRandom(nw, g.NumTasks(), g.NumEdges(), 1, 25, rand.New(rand.NewSource(seed)))
						if err != nil {
							t.Fatal(err)
						}
					} else {
						sys = system.NewUniform(nw, g.NumTasks(), g.NumEdges())
					}
					inc, err := Schedule(g, sys, Options{Seed: seed, RecordTrace: true})
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					oracle, err := Schedule(g, sys, Options{Seed: seed, RecordTrace: true, UseFullRebuild: true})
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					assertTracesIdentical(t, label, inc, oracle)
					assertSerializedIdentical(t, label, inc, oracle)
				}
			}
		}
	}
}

// assertTracesIdentical fails unless both runs attempted exactly the same
// migrations in the same order with the same guard outcomes.
func assertTracesIdentical(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if len(a.MigrationTrace) != len(b.MigrationTrace) {
		t.Fatalf("%s: trace lengths differ: %d vs %d", label, len(a.MigrationTrace), len(b.MigrationTrace))
	}
	for i := range a.MigrationTrace {
		if a.MigrationTrace[i] != b.MigrationTrace[i] {
			t.Fatalf("%s: trace diverges at step %d: %+v vs %+v", label, i, a.MigrationTrace[i], b.MigrationTrace[i])
		}
	}
}

// assertSerializedIdentical fails unless both schedules serialize to the
// same bytes — placement-for-placement, hop-for-hop equality.
func assertSerializedIdentical(t *testing.T, label string, a, b *Result) {
	t.Helper()
	aj, err := a.Schedule.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	bj, err := b.Schedule.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(aj, bj) {
		t.Fatalf("%s: serialized schedules differ (%d vs %d bytes)", label, len(aj), len(bj))
	}
}

// TestEvaluationCountsConsistent checks the evaluation counters: the
// incremental engine and the oracle follow the same trajectory and both
// settle every entry of every row they visit, so their Evaluations agree;
// only the incremental engine settles entries by the bound, some of them
// and never more than it settled in all.
func TestEvaluationCountsConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomConnectedDAG(rng, 60, 0.12)
	sys := randomSystem(t, rng, g, 6)
	inc, err := Schedule(g, sys, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := Schedule(g, sys, Options{Seed: 7, UseFullRebuild: true})
	if err != nil {
		t.Fatal(err)
	}
	if inc.Evaluations != oracle.Evaluations {
		t.Fatalf("incremental engine settled %d entries, oracle %d", inc.Evaluations, oracle.Evaluations)
	}
	if oracle.BoundSkips != 0 {
		t.Fatalf("oracle settled %d entries by the bound, want 0", oracle.BoundSkips)
	}
	if inc.BoundSkips <= 0 || inc.BoundSkips > inc.Evaluations {
		t.Fatalf("bound settled %d of %d entries, want some and at most all", inc.BoundSkips, inc.Evaluations)
	}
}

// TestFixpointSweepSettlesAllEntries drives a run to its fixpoint and
// then replays one more sweep by hand: with no commits in between it
// migrates nothing, yet it settles every entry of every row it visits,
// some of them by the bound alone.
func TestFixpointSweepSettlesAllEntries(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := randomConnectedDAG(rng, 50, 0.15)
	sys := randomSystem(t, rng, g, 5)
	en, bfs, opt := fixpointEngine(t, g, sys)
	entries := 0
	for _, p := range bfs {
		entries += len(en.tasksOn(p)) * len(sys.Net.Neighbors(p))
	}
	res := &Result{}
	evals, skips := en.evaluations, en.boundSkips
	if err := sweepOnce(context.Background(), en, bfs, nil, opt, res); err != nil {
		t.Fatal(err)
	}
	if res.Migrations != 0 {
		t.Fatalf("fixpoint sweep migrated %d tasks", res.Migrations)
	}
	if got := en.evaluations - evals; got != entries {
		t.Fatalf("fixpoint sweep settled %d entries, want all %d", got, entries)
	}
	if en.boundSkips == skips {
		t.Fatal("fixpoint sweep settled no entry by the bound")
	}
}

// TestRouteArena exercises the offset/length arena directly: set, clear,
// extend, prepend, tail truncation and compaction.
func TestRouteArena(t *testing.T) {
	ra := newRouteArena(3)
	if got := ra.route(0); got != nil {
		t.Fatalf("fresh arena route = %v", got)
	}
	ra.set(0, []system.LinkID{1, 2, 3})
	ra.set(1, []system.LinkID{4})
	if got := ra.route(0); len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("route(0) = %v", got)
	}
	r := ra.extend(1, 5)
	if len(r) != 2 || r[0] != 4 || r[1] != 5 {
		t.Fatalf("extend = %v", r)
	}
	r = ra.prepend(1, 6)
	if len(r) != 3 || r[0] != 6 || r[1] != 4 || r[2] != 5 {
		t.Fatalf("prepend = %v", r)
	}
	ra.truncateTail(1, 1)
	if got := ra.route(1); len(got) != 1 || got[0] != 6 {
		t.Fatalf("after truncateTail: %v", got)
	}
	if got := ra.route(0); len(got) != 3 || got[0] != 1 {
		t.Fatalf("route(0) disturbed: %v", got)
	}
	ra.clear(0)
	if got := ra.route(0); got != nil {
		t.Fatalf("cleared route = %v", got)
	}
	if ra.live != 1 {
		t.Fatalf("live = %d, want 1", ra.live)
	}
	// Self-aliasing set must be safe.
	ra.set(1, ra.route(1))
	if got := ra.route(1); len(got) != 1 || got[0] != 6 {
		t.Fatalf("self-set route = %v", got)
	}
	// Force garbage past the compaction threshold and verify contents
	// survive.
	big := make([]system.LinkID, 200)
	for i := range big {
		big[i] = system.LinkID(i)
	}
	for i := 0; i < 50; i++ {
		ra.set(2, big)
	}
	ra.maybeCompact()
	if len(ra.buf) >= 50*len(big) {
		t.Fatalf("compaction did not shrink the arena: len=%d live=%d", len(ra.buf), ra.live)
	}
	if got := ra.route(2); len(got) != 200 || got[199] != 199 {
		t.Fatalf("route(2) corrupted by compaction")
	}
	if got := ra.route(1); len(got) != 1 || got[0] != 6 {
		t.Fatalf("route(1) corrupted by compaction: %v", got)
	}
}

// TestRouteNormalizerMatchesNormalizeRoute checks the in-place normalizer
// against the allocating reference on random walks.
func TestRouteNormalizerMatchesNormalizeRoute(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	nw, err := system.RandomConnected(9, 2, 14, rng)
	if err != nil {
		t.Fatal(err)
	}
	rn := system.NewRouteNormalizer(nw.NumProcs())
	for trial := 0; trial < 500; trial++ {
		src := system.ProcID(rng.Intn(nw.NumProcs()))
		p := src
		walk := make([]system.LinkID, rng.Intn(12))
		for i := range walk {
			adj := nw.Neighbors(p)
			a := adj[rng.Intn(len(adj))]
			walk[i] = a.Link
			p = a.Proc
		}
		want := system.NormalizeRoute(nw, src, append([]system.LinkID(nil), walk...))
		got := rn.Normalize(nw, src, append([]system.LinkID(nil), walk...))
		if len(want) != len(got) {
			t.Fatalf("trial %d: len %d vs %d (walk %v)", trial, len(got), len(want), walk)
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("trial %d: %v vs %v (walk %v)", trial, got, want, walk)
			}
		}
	}
}

// fixpointEngine runs BSA to its migration fixpoint and returns the live
// engine plus everything needed to replay sweeps by hand.
func fixpointEngine(t testing.TB, g *graph.Graph, sys *system.System) (*engine, []system.ProcID, Options) {
	t.Helper()
	var opt Options
	rng := rand.New(rand.NewSource(opt.Seed))
	pivot0, _ := SelectPivot(g, sys)
	exec := sys.ExecCostsOn(pivot0, g.NominalExecCosts())
	serial, _ := SerializePartitioned(g, exec, nil, rng)
	en := newEngine(g, sys, serial, pivot0, opt.engineConfig())
	bfs := sys.Net.BFSOrder(pivot0)
	for sweep := 0; sweep < 4*sys.Net.NumProcs(); sweep++ {
		res := &Result{}
		if err := sweepOnce(context.Background(), en, bfs, nil, opt, res); err != nil {
			t.Fatal(err)
		}
		if res.Migrations == 0 {
			return en, bfs, opt
		}
	}
	t.Fatal("no fixpoint reached")
	return nil, nil, opt
}
