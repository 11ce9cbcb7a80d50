package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/sched/gen"
	"repro/sched/graph"
	"repro/sched/system"
)

// paperInstance builds the deterministic paper-size workload the
// allocation assertions run against (same family as BenchmarkBSA).
func paperInstance(t testing.TB, n int) (*graph.Graph, *system.System) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	g, err := gen.RandomLayered(n, 1.0, rng)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := system.Hypercube(4)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := system.NewRandomMinNormalized(nw, g.NumTasks(), g.NumEdges(), 1, 50, rng)
	if err != nil {
		t.Fatal(err)
	}
	return g, sys
}

// TestEvalMigrationAllocFree pins the migration-evaluation hot path
// (evalRow) at zero allocations per call: the reused evaluation scratch
// and the timeline fit search must not touch the heap at paper sizes.
func TestEvalMigrationAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	g, sys := paperInstance(t, 500)
	en, bfs, _ := fixpointEngine(t, g, sys)
	row := make([]float64, sys.Net.NumProcs())
	// Evaluate every task on every neighbour of its processor once to warm
	// the scratch, then assert steady state.
	eval := func() {
		for _, p := range bfs {
			nbrs := sys.Net.Neighbors(p)
			for _, tk := range en.tasksOn(p) {
				en.evalRow(tk, nbrs, row, math.Inf(1))
			}
		}
	}
	eval()
	if allocs := testing.AllocsPerRun(10, eval); allocs != 0 {
		t.Fatalf("evalRow allocates: %v allocs per full candidate pass", allocs)
	}
}

// TestFixpointSweepAllocFree pins the sweep step at zero allocations: at a
// migration fixpoint a full pivot sweep — every candidate row evaluated
// into the reused row buffer and reduced, the insertion-sort task
// ordering — runs without heap traffic.
func TestFixpointSweepAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	g, sys := paperInstance(t, 500)
	en, bfs, opt := fixpointEngine(t, g, sys)
	ctx := context.Background()
	res := &Result{}
	sweep := func() {
		if err := sweepOnce(ctx, en, bfs, nil, opt, res); err != nil {
			t.Fatal(err)
		}
	}
	sweep()
	if res.Migrations != 0 {
		t.Fatalf("instance did not reach a fixpoint: %d migrations", res.Migrations)
	}
	if allocs := testing.AllocsPerRun(5, sweep); allocs != 0 {
		t.Fatalf("fixpoint sweep allocates: %v allocs per sweep", allocs)
	}
}

// TestCommitMigrationSteadyStateAllocFree asserts the commit path — save,
// route surgery through the arena and in-place normalizer, cone update
// and its change lists — reaches an allocation-free steady state: ping-ponging
// one task between two processors reuses every buffer.
func TestCommitMigrationSteadyStateAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	g, sys := paperInstance(t, 200)
	en, _, _ := fixpointEngine(t, g, sys)
	// Pick any task and a neighbour of its processor, and ping-pong it.
	tk := graph.TaskID(0)
	home := en.assign[tk]
	away := sys.Net.Neighbors(home)[0].Proc
	pingPong := func() {
		en.commitMigration(tk, away, false)
		en.commitMigration(tk, home, false)
	}
	for i := 0; i < 8; i++ {
		pingPong() // warm arenas, strip buffers and change lists
	}
	if allocs := testing.AllocsPerRun(10, pingPong); allocs > 0.5 {
		// The arena compacts and timelines grow on amortized schedules, so
		// tolerate stray fractional counts but fail on per-commit churn.
		t.Fatalf("steady-state commit allocates: %v allocs per ping-pong", allocs)
	}
}
