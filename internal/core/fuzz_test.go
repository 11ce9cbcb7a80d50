package core

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/sim"
	"repro/sched/system"
)

// fuzzTopologies is the number of topology families fuzzNetwork builds.
const fuzzTopologies = 5

// fuzzNetwork builds topology family topo%fuzzTopologies — ring,
// hypercube, 2-row mesh, fully connected or random — with m processors,
// rounded down to a power of two for the hypercube and up to an even
// count for the mesh.
func fuzzNetwork(t *testing.T, rng *rand.Rand, topo uint8, m int) *system.Network {
	t.Helper()
	var nw *system.Network
	var err error
	switch topo % fuzzTopologies {
	case 0:
		nw, err = system.Ring(m)
	case 1:
		nw, err = system.Hypercube(bits.Len(uint(m)) - 1)
	case 2:
		nw, err = system.Mesh2D(2, (m+1)/2)
	case 3:
		nw, err = system.FullyConnected(m)
	default:
		nw, err = system.RandomConnected(m, 1, m, rng)
	}
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

// FuzzBSA is the scheduler's differential fuzz target. The arguments
// decode to one instance: a seeded random DAG of up to 40 tasks on a
// 2–8 processor network of one topology family, with or without
// heterogeneity. Both backends must match the full-rebuild oracle in
// schedule bytes and migration trace, every schedule must validate, and
// its replay in internal/sim must be no longer than its static length.
//
//	go test ./internal/core -run '^$' -fuzz '^FuzzBSA$' -fuzztime 10m
func FuzzBSA(f *testing.F) {
	for topo := uint8(0); topo < fuzzTopologies; topo++ {
		f.Add(int64(topo), uint8(24), uint8(6), topo, topo%2 == 0)
		f.Add(int64(100+topo), uint8(39), uint8(2), topo, topo%2 == 1)
	}
	f.Fuzz(func(t *testing.T, seed int64, nRaw, mRaw, topo uint8, hetero bool) {
		rng := rand.New(rand.NewSource(seed))
		g := randomConnectedDAG(rng, 1+int(nRaw)%40, 0.15)
		nw := fuzzNetwork(t, rng, topo, 2+int(mRaw)%7)
		sys := system.NewUniform(nw, g.NumTasks(), g.NumEdges())
		if hetero {
			var err error
			if sys, err = system.NewRandom(nw, g.NumTasks(), g.NumEdges(), 1, 25, rng); err != nil {
				t.Fatal(err)
			}
		}
		label := fmt.Sprintf("seed=%d n=%d m=%d topo=%d hetero=%v",
			seed, g.NumTasks(), nw.NumProcs(), topo%fuzzTopologies, hetero)
		oracle, err := Schedule(g, sys, Options{Seed: seed, UseFullRebuild: true, RecordTrace: true})
		if err != nil {
			t.Fatalf("%s oracle: %v", label, err)
		}
		assertFeasible(t, label+" oracle", oracle)
		for _, be := range conformanceBackends {
			l := label + " backend=" + be
			r, err := Schedule(g, sys, Options{Seed: seed, backend: be, RecordTrace: true})
			if err != nil {
				t.Fatalf("%s: %v", l, err)
			}
			assertSerializedIdentical(t, l, oracle, r)
			assertTracesIdentical(t, l, oracle, r)
			assertFeasible(t, l, r)
		}
	})
}

// assertFeasible fails unless r's schedule validates and its simulated
// replay finishes every task no later than scheduled, and so is no longer
// than the static schedule.
func assertFeasible(t *testing.T, label string, r *Result) {
	t.Helper()
	if err := r.Schedule.Validate(); err != nil {
		t.Fatalf("%s: invalid schedule: %v", label, err)
	}
	rep, err := sim.Replay(r.Schedule)
	if err != nil {
		t.Fatalf("%s: replay: %v", label, err)
	}
	if err := rep.CheckAgainst(r.Schedule); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
}
