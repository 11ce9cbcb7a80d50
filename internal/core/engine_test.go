package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/sched/gen"
	"repro/sched/graph"
	"repro/sched/system"
)

func exampleEngine(t *testing.T) *engine {
	t.Helper()
	g := gen.PaperExampleGraph()
	sys := gen.PaperExampleSystem(g)
	exec := sys.ExecCostsOn(1, g.NominalExecCosts())
	serial := Serialize(g, exec, nil, rand.New(rand.NewSource(1)))
	return newEngine(g, sys, serial, 1, engineConfig{pruneRoutes: true, guardSlack: 0.05})
}

func TestEngineInitialSerialization(t *testing.T) {
	en := exampleEngine(t)
	// All tasks on the pivot, packed back to back: SL = sum of exec on P2.
	var want float64
	for i := 0; i < 9; i++ {
		want += gen.PaperExecTable[i][1]
	}
	if got := en.s.Length(); got != want {
		t.Fatalf("initial SL=%v, want %v", got, want)
	}
	if err := en.finalSchedule().Validate(); err != nil {
		t.Fatal(err)
	}
	if en.s.TotalComm() != 0 {
		t.Error("serialized schedule should use no links")
	}
}

func TestEngineMigrationKeepsValidity(t *testing.T) {
	en := exampleEngine(t)
	// Migrate a few tasks by hand across the ring and validate after each
	// rebuild. P2's neighbours on Ring(4) are P1 and P3.
	for _, mv := range []struct {
		task graph.TaskID
		to   system.ProcID
	}{
		{2, 0}, // T3 -> P1
		{3, 2}, // T4 -> P3
		{7, 2}, // T8 -> P3 (follows its pred T4)
		{2, 3}, // T3 again: P1 -> P4 (multi-hop route for T1->T3)
	} {
		en.applyMigration(mv.task, mv.to)
		if err := en.finalSchedule().Validate(); err != nil {
			t.Fatalf("after moving task %d to P%d: %v", mv.task, mv.to+1, err)
		}
	}
	// T3 sits two migrations from the pivot; its incoming message must be
	// either local or a contiguous multi-hop route; with pruning it must be
	// a simple path.
	for _, e := range en.g.In(2) {
		hops := en.s.Msgs[e].Hops
		seen := map[system.ProcID]bool{}
		for _, h := range hops {
			if seen[h.From] {
				t.Fatalf("route for message %d revisits P%d", e, h.From+1)
			}
			seen[h.From] = true
		}
	}
}

func TestEngineGuardRollsBack(t *testing.T) {
	en := exampleEngine(t)
	before := en.s.Length()
	// T9 (the sink) to a neighbour: moving only the sink forces every
	// incoming message across one link, which lengthens the schedule, so a
	// zero-slack guard must roll it back.
	en.cfg.guardSlack = 0
	kept := en.commitMigration(8, 0, true)
	if kept {
		// If it was kept the schedule must not be longer.
		if en.s.Length() > before+1e-9 {
			t.Fatalf("guard kept a regressing migration: %v -> %v", before, en.s.Length())
		}
	} else {
		if got := en.s.Length(); got != before {
			t.Fatalf("rollback did not restore SL: %v != %v", got, before)
		}
		if en.assign[8] != 1 {
			t.Fatal("rollback did not restore assignment")
		}
		if err := en.finalSchedule().Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestEngineUnguardedCommitKeeps(t *testing.T) {
	en := exampleEngine(t)
	if !en.commitMigration(8, 0, false) {
		t.Fatal("unguarded commit must always keep")
	}
	if en.assign[8] != 0 {
		t.Fatal("assignment not updated")
	}
	if err := en.finalSchedule().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestEngineElitismRestore(t *testing.T) {
	en := exampleEngine(t)
	initial := en.s.Length()
	// Force a regressing unguarded move, then restore the best state.
	en.applyMigration(8, 0)
	if en.s.Length() <= initial {
		t.Skip("migration happened to improve; nothing to restore")
	}
	if !en.restoreBest() {
		t.Fatal("restoreBest should have rewound")
	}
	if got := en.s.Length(); got != initial {
		t.Fatalf("restored SL=%v, want %v", got, initial)
	}
	if en.restoreBest() {
		t.Fatal("second restore should be a no-op")
	}
}

func TestEngineTasksOnOrder(t *testing.T) {
	en := exampleEngine(t)
	ts := en.tasksOn(1)
	if len(ts) != 9 {
		t.Fatalf("tasksOn(pivot)=%d tasks", len(ts))
	}
	for i := 1; i < len(ts); i++ {
		if en.s.Tasks[ts[i-1]].Start > en.s.Tasks[ts[i]].Start {
			t.Fatal("tasksOn not sorted by start time")
		}
	}
	if got := en.tasksOn(0); len(got) != 0 {
		t.Fatalf("tasksOn(P1)=%v, want empty", got)
	}
}

func TestEvalScratchAddSorted(t *testing.T) {
	sc := newEvalScratch(10)
	sc.add(3, 10, 20)
	sc.add(3, 0, 5)
	sc.add(3, 25, 30)
	slots := sc.extra[3]
	if len(slots) != 3 || slots[0].Start != 0 || slots[1].Start != 10 || slots[2].Start != 25 {
		t.Fatalf("overlay slots unsorted: %+v", slots)
	}
	if len(sc.extra[9]) != 0 {
		t.Fatal("untouched link should be empty")
	}
	if len(sc.touched) != 1 || sc.touched[0] != 3 {
		t.Fatalf("touched=%v, want [3]", sc.touched)
	}
	sc.reset()
	if len(sc.extra[3]) != 0 || len(sc.touched) != 0 {
		t.Fatal("reset did not clear tentative reservations")
	}
}

func TestEvalMigrationMatchesCommit(t *testing.T) {
	// The locally evaluated finish time must match the actual finish time
	// after an (unguarded) commit when the task has no placed successors'
	// interference — true for the sink early on.
	en := exampleEngine(t)
	// Pick T5 (the OB task, a sink with a single pred on the pivot) and
	// evaluate it on the pivot's neighbour P1.
	nbrs := en.sys.Net.Neighbors(en.assign[4])
	ni := -1
	for i, a := range nbrs {
		if a.Proc == 0 {
			ni = i
		}
	}
	if ni < 0 {
		t.Fatal("P1 is not a neighbour of the pivot")
	}
	row := make([]float64, len(nbrs))
	en.evalRow(4, nbrs, row, nil, math.Inf(1))
	ft := row[ni]
	pred := en.g.Edge(en.g.In(4)[0]).From
	if predEnd := en.s.Tasks[pred].End; predEnd <= 0 || ft <= predEnd {
		t.Fatalf("eval: ft=%v not after its predecessor's end %v", ft, predEnd)
	}
	en.applyMigration(4, 0)
	if got := en.s.Tasks[4].End; got != ft {
		t.Fatalf("committed FT=%v, eval predicted %v", got, ft)
	}
}

func TestBSAOnUniformSystemMatchesHomogeneous(t *testing.T) {
	// With all factors 1, pivot selection reduces to processor 0 and the
	// algorithm is the homogeneous BSA; sanity-check a small instance
	// against exhaustive reasoning: two independent tasks on two procs run
	// in parallel when comm is free.
	b := graph.NewBuilder()
	r := b.AddTask("r", 1)
	x := b.AddTask("x", 100)
	y := b.AddTask("y", 100)
	b.AddEdge(r, x, 0)
	b.AddEdge(r, y, 0)
	g, _ := b.Build()
	nw, _ := system.Line(2)
	sys := system.NewUniform(nw, 3, 2)
	res, err := Schedule(g, sys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Schedule.Length(); got != 101 {
		t.Errorf("SL=%v, want 101 (perfect split with free comm)", got)
	}
	if err := res.Schedule.Validate(); err != nil {
		t.Fatal(err)
	}
}
