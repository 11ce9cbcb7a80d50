package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/sched/gen"
	"repro/sched/graph"
	"repro/sched/system"
)

// TestSettleLineKeepsDecision checks settleLine against rowScan's
// first-wins rule directly. Rows of values packed within a few cmpEps of
// the task's current finish time, at magnitudes up to 1e12 where cmpEps
// is below an ulp, must reduce to the same strict-improvement and
// VIP-follow targets after any subset of their entries at or above the
// line is replaced by +Inf — which is all a lower bound could settle.
// The margin is needed for rows like [curFT, curFT-0.5e-9,
// curFT-1.5e-9]: the full scan keeps the first entry, passes over the
// second (within cmpEps of the first) and keeps the third, a strict
// improvement; with the first entry settled, the scan keeps the second,
// which then shields the third.
func TestSettleLineKeepsDecision(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	nbrs := make([]system.Adj, 15)
	for i := range nbrs {
		nbrs[i] = system.Adj{Proc: system.ProcID(i + 1), Link: system.LinkID(i)}
	}
	full := make([]float64, len(nbrs))
	bounded := make([]float64, len(nbrs))
	for trial := 0; trial < 200000; trial++ {
		n := 1 + rng.Intn(len(nbrs))
		curFT := []float64{0, 10, 1234.5, 1e7, 3e9, 1e12}[rng.Intn(6)]
		step := cmpEps * []float64{0.25, 0.5, 1}[rng.Intn(3)]
		if rng.Intn(4) == 0 {
			step = math.Max(step, math.Abs(curFT)*0x1p-52)
		}
		for i := 0; i < n; i++ {
			full[i] = curFT + float64(rng.Intn(4*n+9)-8)*step
		}
		if rng.Intn(2) == 0 {
			// The chain: one entry at the current finish time followed by
			// descending near-ties.
			k := rng.Intn(n)
			full[k] = curFT
			for i := k + 1; i < n; i++ {
				full[i] = full[i-1] - step*float64(1+rng.Intn(3))
			}
		}
		line := settleLine(curFT, n)
		vipProc := system.ProcID(rng.Intn(n + 1))
		for i := 0; i < n; i++ {
			bounded[i] = full[i]
			if full[i] >= line && rng.Intn(3) != 0 {
				bounded[i] = math.Inf(1)
			}
		}
		fb, fy, fv, fvy := rowScan(nbrs[:n], full[:n], vipProc)
		bb, by, bv, bvy := rowScan(nbrs[:n], bounded[:n], vipProc)
		if a, b := migrationTarget(curFT, fb, fy, fv, fvy, false), migrationTarget(curFT, bb, by, bv, bvy, false); a != b {
			t.Fatalf("trial %d: strict target %d (full) vs %d (bounded); curFT=%v line=%v full=%v bounded=%v",
				trial, a, b, curFT, line, full[:n], bounded[:n])
		}
		inf := math.Inf(1)
		if a, b := migrationTarget(curFT, inf, -1, fv, fvy, true), migrationTarget(curFT, inf, -1, bv, bvy, true); a != b {
			t.Fatalf("trial %d: VIP target %d (full) vs %d (bounded); curFT=%v vip=P%d full=%v",
				trial, a, b, curFT, vipProc, full[:n])
		}
	}
}

// TestSettleLineVIPTie pins the case that puts the settle line above the
// VIP rule's acceptance line: a task whose only predecessor, its VIP,
// runs on a free neighbour, over a zero-cost edge, finishes there exactly
// when it finishes now. Its entry's lower bound is exact and equals the
// current finish time, no neighbour strictly improves, and the task must
// follow its VIP. A line at the current finish time would settle that
// entry as +Inf and keep the task where it is.
func TestSettleLineVIPTie(t *testing.T) {
	b := graph.NewBuilder()
	vip := b.AddTask("vip", 2)
	task := b.AddTask("task", 3)
	b.AddEdge(vip, task, 0)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	nw, err := system.Line(2)
	if err != nil {
		t.Fatal(err)
	}
	sys := system.NewUniform(nw, g.NumTasks(), g.NumEdges())
	link, ok := nw.LinkBetween(1, 0)
	if !ok {
		t.Fatal("no link between P1 and P2")
	}
	for _, oracle := range []bool{false, true} {
		label := fmt.Sprintf("oracle=%v", oracle)
		cfg := Options{UseFullRebuild: oracle}.engineConfig()
		en := newWarmEngine(g, sys, []graph.TaskID{vip, task}, []system.ProcID{1, 0}, [][]system.LinkID{{link}}, cfg)
		nbrs := nw.Neighbors(0)
		curFT := en.s.Tasks[task].End
		if lb := drtBound(en.gatherIns(task), 1, link) + sys.Exec[task][1]*g.Task(task).Cost; lb != curFT {
			t.Fatalf("%s: VIP entry bound %v, want the current finish time %v", label, lb, curFT)
		}
		res := &Result{}
		if !en.step(task, 0, nbrs, Options{RecordTrace: true}, res) {
			t.Fatalf("%s: the task did not follow its VIP (trace %+v)", label, res.MigrationTrace)
		}
		if got := res.MigrationTrace[0].To; got != 1 {
			t.Fatalf("%s: migrated to P%d, want P2", label, got+1)
		}
		if got := en.s.Tasks[task].End; got != curFT {
			t.Fatalf("%s: finish time after following the VIP %v, want %v", label, got, curFT)
		}
	}
}

// TestBoundSoundness checks the bound against full evaluation at the
// benchmark's scale, on the paper's four 16-processor topologies with
// heterogeneity on and off and on a warm-adopted engine, at several
// mid-run states and at the fixpoint: for every (task, neighbour) entry
// the bound is at most the evaluated finish time, and the row evaluated
// with the settle line reduces to the same strict-improvement and
// VIP-follow targets as the full row.
func TestBoundSoundness(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-size bound check skipped under -short")
	}
	for i, tc := range []struct {
		name  string
		n     int
		build func() (*system.Network, error)
	}{
		{"clique-16", 400, func() (*system.Network, error) { return system.FullyConnected(16) }},
		{"ring-16", 500, func() (*system.Network, error) { return system.Ring(16) }},
		{"hypercube-16", 500, func() (*system.Network, error) { return system.Hypercube(4) }},
		{"mesh-4x4", 500, func() (*system.Network, error) { return system.Mesh2D(4, 4) }},
	} {
		rng := rand.New(rand.NewSource(int64(90 + i)))
		g, err := gen.RandomLayered(tc.n, 1.0, rng)
		if err != nil {
			t.Fatal(err)
		}
		nw, err := tc.build()
		if err != nil {
			t.Fatal(err)
		}
		hetero, err := system.NewRandomMinNormalized(nw, g.NumTasks(), g.NumEdges(), 1, 50, rng)
		if err != nil {
			t.Fatal(err)
		}
		for _, sys := range []*system.System{hetero, system.NewUniform(nw, g.NumTasks(), g.NumEdges())} {
			label := fmt.Sprintf("%s n=%d hetero=%v", tc.name, tc.n, sys == hetero)
			opt := Options{}
			pivot, _ := SelectPivot(g, sys)
			serial, _ := SerializePartitioned(g, sys.ExecCostsOn(pivot, g.NominalExecCosts()), nil, rand.New(rand.NewSource(0)))
			en := newEngine(g, sys, serial, pivot, opt.engineConfig())
			checkBoundSweeps(t, label, en, pivot, opt)
			if tc.name != "clique-16" || sys != hetero {
				continue
			}
			// Warm: adopt the fixpoint's ground truth under re-drawn costs,
			// so the adopted timelines are far from the new fixpoint.
			redrawn, err := system.NewRandomMinNormalized(nw, g.NumTasks(), g.NumEdges(), 1, 50, rng)
			if err != nil {
				t.Fatal(err)
			}
			routes := make([][]system.LinkID, g.NumEdges())
			for e := range routes {
				routes[e] = append([]system.LinkID(nil), en.routes.route(graph.EdgeID(e))...)
			}
			warm := newWarmEngine(g, redrawn, serial, append([]system.ProcID(nil), en.assign...), routes, opt.engineConfig())
			checkBoundSweeps(t, label+" warm", warm, 0, opt)
		}
	}
}

// checkBoundSweeps runs en's migration sweeps from root, stopping as
// converge does, and checks every entry's bound every few hundred
// decisions and at the end.
func checkBoundSweeps(t *testing.T, label string, en *engine, root system.ProcID, opt Options) {
	t.Helper()
	bfs := en.sys.Net.BFSOrder(root)
	res := &Result{}
	decisions, stale := 0, 0
	for sweep := 0; sweep < 4*en.sys.Net.NumProcs() && stale < 2; sweep++ {
		before, bestBefore := res.Migrations, en.bestLen
		for _, p := range bfs {
			nbrs := en.sys.Net.Neighbors(p)
			for _, tk := range en.tasksOn(p) {
				en.step(tk, p, nbrs, opt, res)
				if decisions++; decisions%300 == 0 {
					checkBoundEntries(t, fmt.Sprintf("%s after %d decisions", label, decisions), en)
				}
			}
		}
		if res.Migrations == before {
			break
		}
		if stale++; en.bestLen < bestBefore-cmpEps {
			stale = 0
		}
	}
	checkBoundEntries(t, fmt.Sprintf("%s at the end (%d decisions)", label, decisions), en)
}

// checkBoundEntries compares, for every task on every neighbour of its
// processor, the bound with the full evaluation, and the row's targets
// with and without the settle line.
func checkBoundEntries(t *testing.T, label string, en *engine) {
	t.Helper()
	m := en.sys.Net.NumProcs()
	full := make([]float64, m)
	bounded := make([]float64, m)
	inf := math.Inf(1)
	for i := range en.assign {
		tk := graph.TaskID(i)
		nbrs := en.sys.Net.Neighbors(en.assign[tk])
		full, bounded := full[:len(nbrs)], bounded[:len(nbrs)]
		en.evalRow(tk, nbrs, full, inf)
		ins := en.gatherIns(tk)
		for ni, a := range nbrs {
			lb := drtBound(ins, a.Proc, a.Link) + en.sys.Exec[tk][a.Proc]*en.g.Task(tk).Cost
			if !(lb <= full[ni]) {
				t.Fatalf("%s: task %d on P%d: bound %v exceeds the evaluated finish time %v",
					label, tk, a.Proc+1, lb, full[ni])
			}
		}
		curFT := en.s.Tasks[tk].End
		en.evalRow(tk, nbrs, bounded, settleLine(curFT, len(nbrs)))
		fb, fy, fv, fvy := en.reduceRow(tk, nbrs, full)
		bb, by, bv, bvy := en.reduceRow(tk, nbrs, bounded)
		if a, b := migrationTarget(curFT, fb, fy, fv, fvy, false), migrationTarget(curFT, bb, by, bv, bvy, false); a != b {
			t.Fatalf("%s: task %d: strict-improvement target %d (full row) vs %d (bounded row)", label, tk, a, b)
		}
		if a, b := migrationTarget(curFT, inf, -1, fv, fvy, true), migrationTarget(curFT, inf, -1, bv, bvy, true); a != b {
			t.Fatalf("%s: task %d: VIP-follow target %d (full row) vs %d (bounded row)", label, tk, a, b)
		}
	}
}

// TestBoundSkipsShare pins how much of the candidate evaluation the bound
// settles where it matters most, a fully connected 16-processor system at
// n=500 (about 88% on the benchmark-shaped instance), and that the
// full-rebuild oracle, which evaluates every entry in full, settles none
// by it.
func TestBoundSkipsShare(t *testing.T) {
	if testing.Short() {
		t.Skip("n=500 runs skipped under -short")
	}
	rng := rand.New(rand.NewSource(42))
	g, err := gen.RandomLayered(500, 1.0, rng)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := system.FullyConnected(16)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := system.NewRandomMinNormalized(nw, g.NumTasks(), g.NumEdges(), 1, 50, rng)
	if err != nil {
		t.Fatal(err)
	}
	inc, err := Schedule(g, sys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if share := float64(inc.BoundSkips) / float64(inc.Evaluations); share < 0.8 {
		t.Fatalf("bound settled %d of %d entries (%.2f), want >= 0.8", inc.BoundSkips, inc.Evaluations, share)
	}
	oracle, err := Schedule(g, sys, Options{UseFullRebuild: true})
	if err != nil {
		t.Fatal(err)
	}
	if oracle.BoundSkips != 0 {
		t.Fatalf("oracle settled %d entries by the bound, want 0", oracle.BoundSkips)
	}
}
