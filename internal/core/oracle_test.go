package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/sched/gen"
	"repro/sched/system"
)

// assertSchedulesIdentical fails unless the two results carry byte-identical
// schedules: every task placement and every message hop sequence equal.
func assertSchedulesIdentical(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if a.Schedule.Length() != b.Schedule.Length() {
		t.Fatalf("%s: SL %v != %v", label, a.Schedule.Length(), b.Schedule.Length())
	}
	if a.Migrations != b.Migrations || a.Sweeps != b.Sweeps || a.Reverted != b.Reverted {
		t.Fatalf("%s: trajectory differs: migrations %d/%d, sweeps %d/%d, reverted %d/%d",
			label, a.Migrations, b.Migrations, a.Sweeps, b.Sweeps, a.Reverted, b.Reverted)
	}
	for i := range a.Schedule.Tasks {
		if a.Schedule.Tasks[i] != b.Schedule.Tasks[i] {
			t.Fatalf("%s: task %d placement differs: %+v vs %+v", label, i, a.Schedule.Tasks[i], b.Schedule.Tasks[i])
		}
	}
	for i := range a.Schedule.Msgs {
		am, bm := a.Schedule.Msgs[i], b.Schedule.Msgs[i]
		if am.Arrival != bm.Arrival || am.Placed != bm.Placed || !reflect.DeepEqual(am.Hops, bm.Hops) {
			t.Fatalf("%s: message %d differs: %+v vs %+v", label, i, am, bm)
		}
	}
}

// TestIncrementalMatchesOracle is the central equivalence property: across
// random graphs, random connected topologies and seeds, the incremental
// engine (cone updates, snapshot rollback and the finish-time bound on
// candidate entries, on both backends) must produce byte-identical
// schedules to the full-rebuild oracle.
func TestIncrementalMatchesOracle(t *testing.T) {
	f := func(seed int64, nRaw, mRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + int(nRaw)%40
		m := 2 + int(mRaw)%10
		g := randomConnectedDAG(rng, n, 0.15)
		nw, err := system.RandomConnected(m, 1, m, rng)
		if err != nil {
			return true
		}
		sys, err := system.NewRandom(nw, g.NumTasks(), g.NumEdges(), 1, 25, rng)
		if err != nil {
			return false
		}
		oracle, err := Schedule(g, sys, Options{Seed: seed, UseFullRebuild: true})
		if err != nil {
			return false
		}
		for _, be := range conformanceBackends {
			inc, err := Schedule(g, sys, Options{Seed: seed, backend: be})
			if err != nil {
				return false
			}
			assertSchedulesIdentical(t, fmt.Sprintf("seed=%d n=%d m=%d backend=%s", seed, n, m, be), oracle, inc)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestIncrementalMatchesOracleAblations checks equivalence under every
// ablation knob, which exercises the unguarded commit and raw-route paths.
func TestIncrementalMatchesOracleAblations(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g := randomConnectedDAG(rng, 35, 0.12)
	sys := randomSystem(t, rng, g, 6)
	for _, opt := range []Options{
		{},
		{DisableVIPFollow: true},
		{DisableRoutePruning: true},
		{DisableMigrationGuard: true},
		{MaxSweeps: 1},
		{GuardSlack: -1},
	} {
		oracleOpt := opt
		oracleOpt.UseFullRebuild = true
		oracle, err := Schedule(g, sys, oracleOpt)
		if err != nil {
			t.Fatal(err)
		}
		inc, err := Schedule(g, sys, opt)
		if err != nil {
			t.Fatal(err)
		}
		assertSchedulesIdentical(t, fmt.Sprintf("%+v", opt), oracle, inc)
	}
}

// TestIncrementalMatchesOraclePaperExample pins the worked example.
func TestIncrementalMatchesOraclePaperExample(t *testing.T) {
	g := gen.PaperExampleGraph()
	sys := gen.PaperExampleSystem(g)
	oracle, err := Schedule(g, sys, Options{UseFullRebuild: true})
	if err != nil {
		t.Fatal(err)
	}
	inc, err := Schedule(g, sys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertSchedulesIdentical(t, "paper example", oracle, inc)
}
