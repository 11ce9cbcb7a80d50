package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/sched/gen"
	"repro/sched/graph"
)

func TestSerializePaperNominalOrder(t *testing.T) {
	// With nominal execution costs, the paper's serial order is
	// T1,T2,T7,T4,T3,T8,T6,T9,T5.
	g := gen.PaperExampleGraph()
	exec := g.NominalExecCosts()
	order := Serialize(g, exec, nil, nil)
	want := []string{"T1", "T2", "T7", "T4", "T3", "T8", "T6", "T9", "T5"}
	if len(order) != len(want) {
		t.Fatalf("order=%v", order)
	}
	for i, id := range order {
		if g.Task(id).Name != want[i] {
			got := make([]string, len(order))
			for j, x := range order {
				got[j] = g.Task(x).Name
			}
			t.Fatalf("serial order = %v, want %v", got, want)
		}
	}
	if !graph.IsLinearExtension(g, order) {
		t.Fatal("serial order is not a linear extension")
	}
}

func TestSerializePaperNominalCP(t *testing.T) {
	g := gen.PaperExampleGraph()
	exec := g.NominalExecCosts()
	cp := graph.CriticalPath(g, exec, nil, nil)
	want := []string{"T1", "T7", "T9"}
	if len(cp) != 3 {
		t.Fatalf("cp=%v", cp)
	}
	for i, id := range cp {
		if g.Task(id).Name != want[i] {
			t.Fatalf("cp[%d]=%s, want %s", i, g.Task(id).Name, want[i])
		}
	}
	if got := graph.CPLength(g, exec, nil); got != 250 {
		t.Fatalf("nominal CP length=%v, want 250", got)
	}
}

func TestSelectPivotPaper(t *testing.T) {
	// The paper: CP lengths w.r.t. P1..P4 make P2 the first pivot; our
	// reconstruction reproduces P1's length (240) exactly and P2 as pivot.
	g := gen.PaperExampleGraph()
	sys := gen.PaperExampleSystem(g)
	pivot, cpLen := SelectPivot(g, sys)
	if pivot != 1 {
		t.Fatalf("pivot=P%d, want P2", pivot+1)
	}
	if cpLen != 226 {
		t.Fatalf("pivot CP length=%v, want 226", cpLen)
	}
	// Cross-check P1's CP length against the paper's 240.
	exec := sys.ExecCostsOn(0, g.NominalExecCosts())
	if got := graph.CPLength(g, exec, nil); got != 240 {
		t.Fatalf("CP length w.r.t. P1=%v, want 240", got)
	}
}

func TestSerializeOnPivotIsLinearExtension(t *testing.T) {
	g := gen.PaperExampleGraph()
	sys := gen.PaperExampleSystem(g)
	exec := sys.ExecCostsOn(1, g.NominalExecCosts())
	order := Serialize(g, exec, nil, rand.New(rand.NewSource(1)))
	if !graph.IsLinearExtension(g, order) {
		t.Fatal("pivot serial order is not a linear extension")
	}
	// First task must be the entry CP task T1; last OB task T5 at the end.
	if g.Task(order[0]).Name != "T1" {
		t.Errorf("first=%s, want T1", g.Task(order[0]).Name)
	}
	if g.Task(order[len(order)-1]).Name != "T5" {
		t.Errorf("last=%s, want T5 (only OB task)", g.Task(order[len(order)-1]).Name)
	}
}

func TestPartitionTasksPaper(t *testing.T) {
	g := gen.PaperExampleGraph()
	exec := g.NominalExecCosts()
	p := PartitionTasks(g, exec, nil, nil)
	name := func(ids []graph.TaskID) map[string]bool {
		m := map[string]bool{}
		for _, id := range ids {
			m[g.Task(id).Name] = true
		}
		return m
	}
	cp := name(p.CP)
	if !cp["T1"] || !cp["T7"] || !cp["T9"] || len(p.CP) != 3 {
		t.Errorf("CP=%v", p.CP)
	}
	ib := name(p.IB)
	// Ancestors of CP tasks not on the CP: T2 (pred of T7), and T3,T4,T6,T8
	// (ancestors of T9).
	for _, w := range []string{"T2", "T3", "T4", "T6", "T8"} {
		if !ib[w] {
			t.Errorf("IB missing %s: %v", w, p.IB)
		}
	}
	ob := name(p.OB)
	if !ob["T5"] || len(p.OB) != 1 {
		t.Errorf("OB=%v, want {T5}", p.OB)
	}
}

// randomConnectedDAG builds a random DAG guaranteed weakly connected by
// first chaining every task to a random earlier task.
func randomConnectedDAG(rng *rand.Rand, n int, extraProb float64) *graph.Graph {
	return randomDAGWithCosts(rng, n, extraProb,
		func() float64 { return 1 + rng.Float64()*199 },
		func() float64 { return rng.Float64() * 100 })
}

// randomDAGWithCosts is randomConnectedDAG with the task and edge costs
// drawn by the given functions.
func randomDAGWithCosts(rng *rand.Rand, n int, extraProb float64, taskCost, edgeCost func() float64) *graph.Graph {
	b := graph.NewBuilder()
	ids := make([]graph.TaskID, n)
	seen := make(map[[2]graph.TaskID]bool)
	for i := 0; i < n; i++ {
		ids[i] = b.AddTask(tName(i), taskCost())
	}
	addEdge := func(u, v graph.TaskID) {
		k := [2]graph.TaskID{u, v}
		if !seen[k] {
			seen[k] = true
			b.AddEdge(u, v, edgeCost())
		}
	}
	for i := 1; i < n; i++ {
		addEdge(ids[rng.Intn(i)], ids[i])
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < extraProb {
				addEdge(ids[i], ids[j])
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

func tName(i int) string {
	return "T" + string(rune('0'+i/100%10)) + string(rune('0'+i/10%10)) + string(rune('0'+i%10))
}

func TestSerializePropertyLinearExtension(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(nRaw)%50
		g := randomConnectedDAG(rng, n, 0.1)
		exec := g.NominalExecCosts()
		order := Serialize(g, exec, nil, rng)
		return graph.IsLinearExtension(g, order)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSerializeCPTasksEarly(t *testing.T) {
	// Property: in the serial order, every task before a CP task is an
	// ancestor-or-CP task (i.e. no OB task precedes the last CP task).
	rng := rand.New(rand.NewSource(5))
	g := randomConnectedDAG(rng, 40, 0.12)
	exec := g.NominalExecCosts()
	p := PartitionTasks(g, exec, nil, nil)
	isOB := map[graph.TaskID]bool{}
	for _, x := range p.OB {
		isOB[x] = true
	}
	order := Serialize(g, exec, nil, nil)
	lastCP := -1
	for i, x := range order {
		for _, c := range p.CP {
			if x == c {
				lastCP = i
			}
		}
	}
	for i := 0; i < lastCP; i++ {
		if isOB[order[i]] {
			t.Fatalf("OB task %d appears at position %d before last CP task at %d", order[i], i, lastCP)
		}
	}
}

func TestSerializeEmpty(t *testing.T) {
	g, _ := graph.NewBuilder().Build()
	if got := Serialize(g, nil, nil, nil); got != nil {
		t.Fatalf("Serialize(empty)=%v", got)
	}
}
