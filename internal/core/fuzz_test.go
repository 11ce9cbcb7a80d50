package core

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/sim"
	"repro/sched/graph"
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

// fuzzAblation decodes the low four bits of a fuzz byte into ablation
// options: VIP following, route pruning and the migration guard off, and
// a single sweep.
func fuzzAblation(b uint8) Options {
	opt := Options{
		DisableVIPFollow:      b&1 != 0,
		DisableRoutePruning:   b&2 != 0,
		DisableMigrationGuard: b&4 != 0,
	}
	if b&8 != 0 {
		opt.MaxSweeps = 1
	}
	return opt
}

// FuzzBSA is the scheduler's differential fuzz target. The arguments
// decode to one instance: a seeded random DAG of up to 40 tasks on a
// 2–8 processor network of one topology family, with or without
// heterogeneity, under one combination of ablation options (the oracle
// gets the same). Both backends must match the full-rebuild oracle in
// schedule bytes and migration trace, every schedule must validate, and
// its replay in internal/sim must be no longer than its static length.
// DisableRoutePruning matters most: it is the path where SoA's cone
// update runs the extra-slot merge scan on link-revisiting routes, next
// to memoized fit scans on the other links. ties selects the tie-heavy
// cost mode (see tieDAG) on a uniform system: candidate finish times
// then tie exactly, so the first-wins scan, the VIP rule and the
// candidate bound's settle line decide.
//
//	go test ./internal/core -run '^$' -fuzz '^FuzzBSA$' -fuzztime 10m
func FuzzBSA(f *testing.F) {
	for topo := uint8(0); topo < fuzzTopologies; topo++ {
		f.Add(int64(topo), uint8(24), uint8(6), topo, topo%2 == 0, uint8(0), false)
		f.Add(int64(100+topo), uint8(39), uint8(2), topo, topo%2 == 1, uint8(1+3*topo), false)
	}
	for topo := uint8(0); topo < fuzzTopologies; topo++ {
		f.Add(int64(200+topo), uint8(30), uint8(3+topo), topo, false, uint8(2*topo), true)
	}
	f.Fuzz(checkFuzzBSA)
}

// TestFuzzBSARevisitedLink pins FuzzBSA's first finding under the
// ablation axis: with route pruning off, the SoA backend re-placed a
// message whose route revisits a link hop by hop, so an earlier new hop
// could overlap a later old hop of the same message — still in place,
// keyed like the hop itself — and the eviction check panicked on it.
func TestFuzzBSARevisitedLink(t *testing.T) {
	checkFuzzBSA(t, -47, 24, 6, 3, false, 39, false)
}

// TestFuzzBSAZeroLengthSlots pins FuzzBSA's findings in the tie-heavy
// mode, where zero-cost edges put zero-length hops on links. The fit
// passes over a zero-length slot at a candidate's start or end but is
// blocked by one strictly inside it, and a zero-length candidate is
// blocked only by a slot it lies strictly inside. Each case failed
// before the backends followed those rules: SoA evicted a visible
// zero-length slot at a new hop's start and panicked; the reference
// backend's restore of an unchanged hop reported an overlap with a
// zero-length slot at its start and panicked; SoA missed that removing a
// zero-length slot at an item's old start, or shortening a slot around a
// zero-length hop to start at it, can let an item move earlier, and
// diverged from the oracle; and SoA ordered two zero-length hops at one
// instant against placement order, so the replay, which serves each
// link in timeline order, deadlocked.
func TestFuzzBSAZeroLengthSlots(t *testing.T) {
	checkFuzzBSA(t, 200, 30, 3, 0, false, 0, true)
	checkFuzzBSA(t, 203, 30, 6, 3, false, 6, true)
	checkFuzzBSA(t, 297, 30, 4, 1, false, 2, true)
	checkFuzzBSA(t, 223, 143, 0, 8, true, 86, true)
	checkFuzzBSA(t, 153, 39, 2, 3, true, 0, true)
}

// tieDAG is randomConnectedDAG with small-integer costs: tasks cost 1–4
// and edges 0–2, a third of them free.
func tieDAG(rng *rand.Rand, n int, extraProb float64) *graph.Graph {
	return randomDAGWithCosts(rng, n, extraProb,
		func() float64 { return float64(1 + rng.Intn(4)) },
		func() float64 { return float64(rng.Intn(3)) })
}

// fuzzCase is one instance decoded from FuzzBSA's arguments, with the
// options to run it under and the generator left where decoding stopped.
type fuzzCase struct {
	rng   *rand.Rand
	g     *graph.Graph
	sys   *system.System
	opt   Options
	label string
}

// decodeFuzzCase decodes FuzzBSA's arguments: a seeded random DAG of up
// to 40 tasks on a 2–8 processor network of one topology family, with or
// without heterogeneity (never in the tie-heavy mode, which keeps a
// uniform system), under one combination of ablation options.
func decodeFuzzCase(t *testing.T, seed int64, nRaw, mRaw, topo uint8, hetero bool, ablation uint8, ties bool) fuzzCase {
	rng := rand.New(rand.NewSource(seed))
	var g *graph.Graph
	if ties {
		g = tieDAG(rng, 1+int(nRaw)%40, 0.15)
		hetero = false
	} else {
		g = randomConnectedDAG(rng, 1+int(nRaw)%40, 0.15)
	}
	nw := fuzzNetwork(t, rng, topo, 2+int(mRaw)%7)
	sys := system.NewUniform(nw, g.NumTasks(), g.NumEdges())
	if hetero {
		var err error
		if sys, err = system.NewRandom(nw, g.NumTasks(), g.NumEdges(), 1, 25, rng); err != nil {
			t.Fatal(err)
		}
	}
	opt := fuzzAblation(ablation)
	opt.Seed, opt.RecordTrace = seed, true
	label := fmt.Sprintf("seed=%d n=%d m=%d topo=%d hetero=%v ties=%v ablation=%+v",
		seed, g.NumTasks(), nw.NumProcs(), topo%fuzzTopologies, hetero, ties, fuzzAblation(ablation))
	return fuzzCase{rng: rng, g: g, sys: sys, opt: opt, label: label}
}

// checkFuzzBSA is FuzzBSA's property for one decoded instance.
func checkFuzzBSA(t *testing.T, seed int64, nRaw, mRaw, topo uint8, hetero bool, ablation uint8, ties bool) {
	fc := decodeFuzzCase(t, seed, nRaw, mRaw, topo, hetero, ablation, ties)
	oracleOpt := fc.opt
	oracleOpt.UseFullRebuild = true
	oracle, err := Schedule(fc.g, fc.sys, oracleOpt)
	if err != nil {
		t.Fatalf("%s oracle: %v", fc.label, err)
	}
	assertFeasible(t, fc.label+" oracle", oracle)
	for _, be := range conformanceBackends {
		l := fc.label + " backend=" + be
		beOpt := fc.opt
		beOpt.backend = be
		r, err := Schedule(fc.g, fc.sys, beOpt)
		if err != nil {
			t.Fatalf("%s: %v", l, err)
		}
		assertSerializedIdentical(t, l, oracle, r)
		assertTracesIdentical(t, l, oracle, r)
		assertFeasible(t, l, r)
	}
}

// FuzzReschedule is the warm path's differential fuzz target. The first
// seven arguments decode an instance as in FuzzBSA, which is scheduled
// cold. Its schedule is then adopted, previous slots included, on a
// post-delta system in which rescale%8 execution factors are scaled by
// 0.5–2 (in quarter steps, so tie-heavy costs stay exact), and bit i%64
// of dirty puts task i on the initial frontier. The adoption diff adds
// every task the rescaling moved. Both backends must reconverge to
// byte-identical schedules and migration traces (the warm path has no
// full-rebuild oracle), and every schedule must validate and replay.
//
//	go test ./internal/core -run '^$' -fuzz '^FuzzReschedule$' -fuzztime 10m
func FuzzReschedule(f *testing.F) {
	for topo := uint8(0); topo < fuzzTopologies; topo++ {
		f.Add(int64(topo), uint8(24), uint8(6), topo, topo%2 == 0, uint8(0), false, uint64(0x9249249249249249), uint8(3))
		f.Add(int64(100+topo), uint8(39), uint8(2), topo, topo%2 == 1, uint8(1+3*topo), false, uint64(0), uint8(7))
		f.Add(int64(200+topo), uint8(30), uint8(3+topo), topo, false, uint8(2*topo), true, uint64(1)<<topo, uint8(topo))
	}
	f.Fuzz(checkFuzzReschedule)
}

// checkFuzzReschedule is FuzzReschedule's property for one decoded
// instance.
func checkFuzzReschedule(t *testing.T, seed int64, nRaw, mRaw, topo uint8, hetero bool, ablation uint8, ties bool, dirty uint64, rescale uint8) {
	fc := decodeFuzzCase(t, seed, nRaw, mRaw, topo, hetero, ablation, ties)
	cold, err := Schedule(fc.g, fc.sys, fc.opt)
	if err != nil {
		t.Fatalf("%s cold: %v", fc.label, err)
	}
	sys := &system.System{Net: fc.sys.Net, Exec: make([][]float64, len(fc.sys.Exec)), Comm: fc.sys.Comm}
	for i, row := range fc.sys.Exec {
		sys.Exec[i] = append([]float64(nil), row...)
	}
	for k := 0; k < int(rescale%8); k++ {
		row := sys.Exec[fc.rng.Intn(len(sys.Exec))]
		row[fc.rng.Intn(len(row))] *= 0.5 + 0.25*float64(fc.rng.Intn(7))
	}
	var frontier []graph.TaskID
	for i := 0; i < fc.g.NumTasks(); i++ {
		if dirty>>(i%64)&1 != 0 {
			frontier = append(frontier, graph.TaskID(i))
		}
	}
	warm := warmFromCold(cold, frontier)
	warm.PrevTasks, warm.PrevMsgs = cold.Schedule.Tasks, cold.Schedule.Msgs
	label := fmt.Sprintf("%s dirty=%#x rescale=%d", fc.label, dirty, rescale%8)
	var base *Result
	for _, be := range conformanceBackends {
		l := label + " backend=" + be
		opt := fc.opt
		opt.backend = be
		r, err := Reschedule(fc.g, sys, warm, opt)
		if err != nil {
			t.Fatalf("%s: %v", l, err)
		}
		assertFeasible(t, l, r)
		if base == nil {
			base = r
			continue
		}
		assertSerializedIdentical(t, l, base, r)
		assertTracesIdentical(t, l, base, r)
	}
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
