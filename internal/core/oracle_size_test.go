package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/sched/gen"
	"repro/sched/system"
)

// TestIncrementalMatchesOracleBenchmarkSize holds both backends to the
// full-rebuild oracle — schedule bytes and migration trace — at the
// benchmark's scale: n=300–500 random layered graphs with min-normalized
// heterogeneity 1–50 on the paper's four 16-processor topologies and on
// a 64-processor ring, whose routes run up to 32 hops over long link
// timelines. The other equivalence tests stay at ≤60 tasks, where link
// timelines hold a few dozen hops; only here do they hold the hundreds
// of packed slots over which the fit scans' rejected-run memo jumps. It
// takes a few seconds (about twenty under -race), so -short skips it.
func TestIncrementalMatchesOracleBenchmarkSize(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-size oracle comparison skipped under -short")
	}
	for i, tc := range []struct {
		name  string
		n     int
		build func() (*system.Network, error)
	}{
		{"clique-16", 300, func() (*system.Network, error) { return system.FullyConnected(16) }},
		{"ring-16", 500, func() (*system.Network, error) { return system.Ring(16) }},
		{"hypercube-16", 500, func() (*system.Network, error) { return system.Hypercube(4) }},
		{"mesh-4x4", 400, func() (*system.Network, error) { return system.Mesh2D(4, 4) }},
		{"ring-64", 500, func() (*system.Network, error) { return system.Ring(64) }},
	} {
		rng := rand.New(rand.NewSource(int64(70 + i)))
		g, err := gen.RandomLayered(tc.n, 1.0, rng)
		if err != nil {
			t.Fatal(err)
		}
		nw, err := tc.build()
		if err != nil {
			t.Fatal(err)
		}
		sys, err := system.NewRandomMinNormalized(nw, g.NumTasks(), g.NumEdges(), 1, 50, rng)
		if err != nil {
			t.Fatal(err)
		}
		oracle, err := Schedule(g, sys, Options{UseFullRebuild: true, RecordTrace: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, be := range conformanceBackends {
			label := fmt.Sprintf("%s n=%d backend=%s", tc.name, tc.n, be)
			r, err := Schedule(g, sys, Options{backend: be, RecordTrace: true})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			assertSerializedIdentical(t, label, oracle, r)
			assertTracesIdentical(t, label, oracle, r)
		}
	}
}
