// Quasi-dynamic warm start: reconverging BSA from an adopted schedule.
//
// The cold entry point injects the whole serialization onto one pivot and
// bubbles tasks outward. The warm entry point instead adopts a previous
// schedule as the engine's ground truth — the serial order is the
// previous schedule's start-time order, assignments and routes carry over
// — and runs the same breadth-first migration sweeps restricted to a
// dirty frontier: the tasks a problem delta actually touched. After every
// kept migration the frontier grows by exactly the commit's dependency
// cone, read off the cone update's change lists, so reconvergence
// evaluates candidates only where the delta propagates instead of
// re-deciding the whole system.

package core

import (
	"context"
	"fmt"

	"repro/internal/schedule"
	"repro/sched/graph"
	"repro/sched/system"
)

// WarmStart seeds RescheduleContext with ground truth adopted from a
// previous schedule, already translated into the (post-delta) problem's
// ID space by the caller.
type WarmStart struct {
	// Serial is the serialization order the engine replays placements in.
	// It must be a linear extension of the graph; the natural choice is
	// the previous schedule's start-time order with appended tasks in
	// topological order at the end.
	Serial []graph.TaskID
	// Assign maps every task to its adopted processor.
	Assign []system.ProcID
	// Routes holds, for every edge, a route connecting the assigned
	// endpoint processors (empty means both endpoints share a processor).
	Routes [][]system.LinkID
	// Dirty seeds the reconvergence frontier: tasks displaced, re-routed,
	// re-costed or appended by the delta. Tasks outside the frontier are
	// not considered for migration until a kept migration's dependency
	// cone reaches them.
	Dirty []graph.TaskID
	// PrevTasks and PrevMsgs optionally carry the previous schedule's
	// slots (remapped; a zero/unplaced entry means "no prior placement").
	// Adopting the ground truth replays it under the new system, so slots
	// can shift even for untouched tasks; any task or message whose
	// adopted placement diverges from its previous one joins the dirty
	// frontier.
	PrevTasks []schedule.TaskSlot
	PrevMsgs  []schedule.MsgSlot
}

// Reschedule runs the warm-started migration reconvergence. See
// RescheduleContext.
func Reschedule(g *graph.Graph, sys *system.System, warm WarmStart, opt Options) (*Result, error) {
	return RescheduleContext(context.Background(), g, sys, warm, opt)
}

// RescheduleContext adopts warm's (serial, assign, routes) ground truth
// into engine timelines, marks the dirty frontier, and reconverges with
// breadth-first migration sweeps restricted to that frontier. The warm
// path always uses the incremental engine — the cone update's change
// lists are what make frontier expansion sound — so
// Options.UseFullRebuild is ignored. Result.Serial reports the adopted
// serial order; Result.DirtyTasks the frontier size after adoption
// diffing.
func RescheduleContext(ctx context.Context, g *graph.Graph, sys *system.System, warm WarmStart, opt Options) (*Result, error) {
	if err := sys.Validate(g.NumTasks(), g.NumEdges()); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	n, m := g.NumTasks(), sys.Net.NumProcs()

	res := &Result{}
	if n == 0 {
		res.Schedule = schedule.New(g, sys)
		return res, nil
	}

	if err := validateWarm(g, sys, warm); err != nil {
		return nil, fmt.Errorf("core: warm start: %w", err)
	}
	res.Serial = warm.Serial

	cfg := opt.engineConfig()
	cfg.fullRebuild = false
	en := newWarmEngine(g, sys, warm.Serial, warm.Assign, warm.Routes, cfg)
	en.setContext(ctx)

	ds := newDirtySet(n)
	for _, t := range warm.Dirty {
		ds.mark(t)
	}
	// Adoption diff: replaying the adopted ground truth under the new
	// system can land tasks elsewhere than the previous schedule did
	// (durations and routes changed, and the serial order is a
	// reconstruction). Whatever moved is part of the delta's footprint.
	if warm.PrevTasks != nil {
		for t := range en.s.Tasks {
			if prev := warm.PrevTasks[t]; !prev.Placed || en.s.Tasks[t] != prev {
				ds.mark(graph.TaskID(t))
			}
		}
	}
	if warm.PrevMsgs != nil {
		for e := range en.s.Msgs {
			prev := &warm.PrevMsgs[e]
			cur := &en.s.Msgs[e]
			if !prev.Placed || cur.Arrival != prev.Arrival || !hopsEqual(cur.Hops, prev.Hops) {
				ds.mark(g.Edge(graph.EdgeID(e)).To)
			}
		}
	}
	res.DirtyTasks = ds.n

	// Sweep breadth-first from the processor carrying the most dirty
	// tasks — the warm analogue of starting at the injection pivot.
	root := system.ProcID(0)
	if ds.n > 0 {
		counts := make([]int, m)
		for t, dirty := range ds.flag {
			if dirty {
				counts[en.assign[t]]++
			}
		}
		for p := 1; p < m; p++ {
			if counts[p] > counts[root] {
				root = system.ProcID(p)
			}
		}
	}
	res.InitialPivot = root

	if err := converge(ctx, en, root, ds, opt, res); err != nil {
		return nil, err
	}
	return res, nil
}

// validateWarm checks the adopted ground truth well enough that the
// engine cannot panic on it: the serial order must be a linear-extension
// permutation, assignments in range, and every route must connect its
// edge's assigned endpoints.
func validateWarm(g *graph.Graph, sys *system.System, warm WarmStart) error {
	n := g.NumTasks()
	if len(warm.Serial) != n {
		return fmt.Errorf("serial has %d tasks, graph has %d", len(warm.Serial), n)
	}
	if len(warm.Assign) != n {
		return fmt.Errorf("assign has %d tasks, graph has %d", len(warm.Assign), n)
	}
	if len(warm.Routes) != g.NumEdges() {
		return fmt.Errorf("routes has %d edges, graph has %d", len(warm.Routes), g.NumEdges())
	}
	if warm.PrevTasks != nil && len(warm.PrevTasks) != n {
		return fmt.Errorf("prev tasks has %d entries, graph has %d tasks", len(warm.PrevTasks), n)
	}
	if warm.PrevMsgs != nil && len(warm.PrevMsgs) != g.NumEdges() {
		return fmt.Errorf("prev msgs has %d entries, graph has %d edges", len(warm.PrevMsgs), g.NumEdges())
	}
	seen := make([]bool, n)
	for _, t := range warm.Serial {
		if t < 0 || int(t) >= n || seen[t] {
			return fmt.Errorf("serial is not a permutation (task %d)", t)
		}
		seen[t] = true
	}
	pos := SerialPositions(g, warm.Serial)
	for _, e := range g.Edges() {
		if pos[e.From] >= pos[e.To] {
			return fmt.Errorf("serial is not a linear extension (edge %d->%d)", e.From, e.To)
		}
	}
	mprocs := system.ProcID(sys.Net.NumProcs())
	for t, p := range warm.Assign {
		if p < 0 || p >= mprocs {
			return fmt.Errorf("task %d assigned to processor %d (m=%d)", t, p, mprocs)
		}
	}
	for e, r := range warm.Routes {
		edge := g.Edge(graph.EdgeID(e))
		src, dst := warm.Assign[edge.From], warm.Assign[edge.To]
		if !system.ValidRoute(sys.Net, src, dst, r) {
			return fmt.Errorf("edge %d route does not connect P%d to P%d", e, src+1, dst+1)
		}
	}
	return nil
}

// dirtySet tracks the reconvergence frontier.
type dirtySet struct {
	flag []bool
	n    int
}

func newDirtySet(numTasks int) *dirtySet {
	return &dirtySet{flag: make([]bool, numTasks)}
}

func (ds *dirtySet) mark(t graph.TaskID) {
	if !ds.flag[t] {
		ds.flag[t] = true
		ds.n++
	}
}

func (ds *dirtySet) clear(t graph.TaskID) {
	if ds.flag[t] {
		ds.flag[t] = false
		ds.n--
	}
}

// expand grows the frontier by a kept commit's dependency cone, read off
// the cone update's change lists (valid until the next update): tasks
// whose slot moved (including the migrated task itself, which may keep
// bubbling over multiple hops) and receivers of messages that moved.
// Tasks whose timeline was merely dirtied without their slot moving are
// deliberately left out: re-deciding them buys little quality but, on
// dense topologies, would re-examine whole processors after every commit
// and erase the warm start's evaluation savings.
func (ds *dirtySet) expand(en *engine) {
	for _, t := range en.updTasks {
		ds.mark(t)
	}
	for _, e := range en.updMsgs {
		ds.mark(en.g.Edge(e).To)
	}
}
