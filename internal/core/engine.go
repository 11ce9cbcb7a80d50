package core

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/schedule"
	"repro/sched/graph"
	"repro/sched/system"
)

// engineConfig selects the engine variant and its tuning knobs.
type engineConfig struct {
	pruneRoutes bool
	guardSlack  float64
	// backend forces a schedule-state backend by name (see newBackend);
	// empty picks one by link density.
	backend string
	// fullRebuild selects the original oracle engine: every committed
	// migration reconstructs the whole timeline from (serial, assign,
	// routes) and guard rollbacks rebuild once more. The default
	// incremental engine re-derives only the migration's dependency cone
	// (see updateFrom) and rolls back by restoring arena-saved ground
	// truth; both produce byte-identical schedules.
	fullRebuild bool
}

// engine holds BSA's mutable state. The ground truth is (serial, assign,
// routes); the schedule is deterministically derived from them after every
// committed migration — by a full rebuild in the oracle engine, or by an
// event-driven cone update in the incremental engine — which keeps
// timelines globally consistent while migration *decisions* are evaluated
// locally against the current timelines, as in the paper.
type engine struct {
	g      *graph.Graph
	sys    *system.System
	serial []graph.TaskID
	pos    []int // serial index of each task (inverse of serial)
	msgPos []int // serial index a message is placed at (its destination's)
	assign []system.ProcID
	routes *routeArena
	s      *schedule.Schedule

	// be owns the slot state (who occupies each processor/link when) and
	// the operations on it; see backend.go. en.s.Tasks/Msgs stay the
	// engine-maintained per-item ground truth either way.
	be backend

	cfg engineConfig

	// ctx is polled at bounded intervals inside cone updates (see
	// pollCancel); cancelErr latches the first observed ctx error so a
	// canceled run aborts between, not inside, timeline mutations.
	ctx       context.Context
	cancelErr error
	pollCount int

	// norm prunes loops out of migrated routes in place (no per-commit
	// allocations).
	norm *system.RouteNormalizer

	// cache is the sweep-level candidate cache; nil only in the
	// full-rebuild oracle engine, which evaluates every row afresh.
	cache *candCache

	// curLen caches s.Length() after every (re)build so the guard and
	// elitism checks do not rescan all tasks. lenArg is the task realizing
	// it; updEndMax/updEndArg track the largest end among tasks re-placed
	// by the current update. Together they keep curLen incremental: a full
	// rescan is only needed when the argmax task itself was re-placed.
	curLen    float64
	lenArg    graph.TaskID
	updEndMax float64
	updEndArg graph.TaskID

	// Snapshot buffers for guarded commits: the mutable ground truth a
	// migration of t can touch (t's assignment and its incident-edge
	// routes) is saved into arena-reused buffers, and a rollback restores
	// it and re-derives the timeline — a second cone update in the
	// incremental engine, a full rebuild in the oracle. Reverts are rare
	// (a few percent of commits), so snapshotting whole timelines eagerly
	// would cost more than it saves.
	savedAssign system.ProcID
	savedTask   graph.TaskID
	savedRoutes []routeSave
	savedBuf    []system.LinkID
	savedLen    float64

	// touchedEdges accumulates the edges whose routes may have diverged
	// from bestRoutes since the last elitism copy, so noteState copies a
	// handful of routes per improvement instead of all of them.
	touchedEdges []graph.EdgeID

	// Reusable buffers of candidate evaluation (see evalRow) and of the
	// sweep: the oracle's per-decision row, the cached engine's stale-entry
	// mask and tasksOn's result.
	sc       *evalScratch
	inEvals  []inEdgeEval
	rowBuf   []float64
	staleBuf []bool
	taskBuf  []graph.TaskID

	// Event-driven update state (see updateFrom). All per-update flags are
	// epoch-stamped so an update starts with a single counter increment
	// instead of clearing arrays.
	epoch        uint32
	pending      int      // queued-but-unprocessed items this update
	rankPending  []uint32 // serial ranks holding queued work
	inIndex      []int32  // index of each edge within In(destination)
	migTask      graph.TaskID
	taskQueued   []uint32
	msgQueued    []uint32
	taskDone     []uint32
	msgDone      []uint32
	taskChanged  []uint32 // placement changed this update (slot differs)
	drtTouched   []uint32 // an incoming arrival changed this update
	procStripped []uint32
	procStripAt  []int64 // rank the processor timeline was stripped at
	procDirtied  []uint32
	linkStripped []uint32
	linkStripAt  []int64
	linkDirtied  []uint32
	oldHops      []schedule.Hop // scratch copy for placement comparison

	// Elitism: the best (assign, routes) state seen so far, restored at the
	// end of the run. Migrations may regress the schedule length within the
	// guard slack (chain heads move before their successors follow), so the
	// final state is not necessarily the best one visited.
	bestLen    float64
	bestAssign []system.ProcID
	bestRoutes *routeArena

	// Counters for Result.
	rebuilds    int
	placements  int // task placements performed across all (re)builds
	msgPlaces   int // message placements performed across all (re)builds
	evaluations int // candidate entries settled, by a fit or by the bound
	boundSkips  int // candidate entries settled by the bound alone
}

// routeSave is one saved incident-edge route: an (offset, length) view
// into the engine's savedBuf arena, reused across commits.
type routeSave struct {
	e      graph.EdgeID
	off, n int32
}

// newEngine builds the cold-start engine: every task is assigned to the
// pivot and all routes are empty, the serial-injection state of the
// paper's stage 2.
func newEngine(g *graph.Graph, sys *system.System, serial []graph.TaskID, pivot system.ProcID, cfg engineConfig) *engine {
	en := newEngineCore(g, sys, serial, cfg)
	for i := range en.assign {
		en.assign[i] = pivot
	}
	en.finishInit()
	return en
}

// newWarmEngine builds an engine whose ground truth (assign, routes) is
// adopted from a previous schedule instead of the all-on-pivot injection
// state. One rebuild derives the timelines from the adopted state, so the
// engine starts at the warm schedule with every invariant (including the
// elitism baseline) established exactly as if BSA had migrated its way
// here.
func newWarmEngine(g *graph.Graph, sys *system.System, serial []graph.TaskID, assign []system.ProcID, routes [][]system.LinkID, cfg engineConfig) *engine {
	en := newEngineCore(g, sys, serial, cfg)
	copy(en.assign, assign)
	for e, r := range routes {
		en.routes.set(graph.EdgeID(e), r)
	}
	en.finishInit()
	return en
}

// newEngineCore allocates everything both engine constructors share; the
// caller seeds assign/routes and then calls finishInit.
func newEngineCore(g *graph.Graph, sys *system.System, serial []graph.TaskID, cfg engineConfig) *engine {
	en := &engine{
		g:      g,
		sys:    sys,
		serial: serial,
		pos:    SerialPositions(g, serial),
		assign: make([]system.ProcID, g.NumTasks()),
		routes: newRouteArena(g.NumEdges()),
		s:      schedule.New(g, sys),
		cfg:    cfg,
		norm:   system.NewRouteNormalizer(sys.Net.NumProcs()),
	}
	en.msgPos = make([]int, g.NumEdges())
	for e := range en.msgPos {
		en.msgPos[e] = en.pos[g.Edge(graph.EdgeID(e)).To]
	}
	if !cfg.fullRebuild {
		en.inIndex = make([]int32, g.NumEdges())
		for t := 0; t < g.NumTasks(); t++ {
			for i, e := range g.In(graph.TaskID(t)) {
				en.inIndex[e] = int32(i)
			}
		}
		en.rankPending = make([]uint32, g.NumTasks())
		en.taskQueued = make([]uint32, g.NumTasks())
		en.taskDone = make([]uint32, g.NumTasks())
		en.taskChanged = make([]uint32, g.NumTasks())
		en.drtTouched = make([]uint32, g.NumTasks())
		en.msgQueued = make([]uint32, g.NumEdges())
		en.msgDone = make([]uint32, g.NumEdges())
		en.procStripped = make([]uint32, sys.Net.NumProcs())
		en.procStripAt = make([]int64, sys.Net.NumProcs())
		en.procDirtied = make([]uint32, sys.Net.NumProcs())
		en.linkStripped = make([]uint32, sys.Net.NumLinks())
		en.linkStripAt = make([]int64, sys.Net.NumLinks())
		en.linkDirtied = make([]uint32, sys.Net.NumLinks())
		en.cache = newCandCache(g.NumTasks(), g.NumEdges(), sys.Net.NumProcs(), sys.Net.NumLinks())
	}
	en.sc = newEvalScratch(sys.Net.NumLinks())
	en.be = newBackend(en)
	return en
}

// setContext arms bounded-interval cancellation polling inside cone
// updates. Both scheduling contexts call it right after construction;
// the zero ctx (nil) disables interior polling.
func (en *engine) setContext(ctx context.Context) { en.ctx = ctx }

// cancelPollEvery is how many processed cone-update items go by between
// two ctx.Err() polls. One item costs on the order of a microsecond, so
// this bounds cancellation latency to well under a millisecond while
// keeping the poll overhead unmeasurable.
const cancelPollEvery = 256

// pollCancel counts processed items and, every cancelPollEvery of them,
// polls the run's context. It reports whether the run is canceled; once
// true the current update must unwind without further timeline mutations
// (the slot state is torn — commitMigration skips the guard and the sweep
// loop surfaces en.cancelErr).
func (en *engine) pollCancel() bool {
	if en.cancelErr != nil {
		return true
	}
	if en.ctx == nil {
		return false
	}
	if en.pollCount++; en.pollCount < cancelPollEvery {
		return false
	}
	en.pollCount = 0
	if err := en.ctx.Err(); err != nil {
		en.cancelErr = err
		return true
	}
	return false
}

// finalSchedule materializes the backend's slot state into the Schedule's
// timelines and returns the schedule; the contexts call it before handing
// the schedule out, and tests call it before Validate.
func (en *engine) finalSchedule() *schedule.Schedule {
	en.be.finalize()
	return en.s
}

// finishInit derives the initial timelines from the seeded ground truth
// and establishes the elitism baseline. bestRoutes must mirror the
// current routes exactly: noteState only refreshes touched edges, so any
// route it never touches is assumed equal to the baseline copy.
func (en *engine) finishInit() {
	en.rebuild()
	en.bestLen = en.s.Length()
	en.bestAssign = append([]system.ProcID(nil), en.assign...)
	en.bestRoutes = newRouteArena(en.g.NumEdges())
	for e := 0; e < en.g.NumEdges(); e++ {
		en.bestRoutes.set(graph.EdgeID(e), en.routes.route(graph.EdgeID(e)))
	}
}

// noteState records the current state if it is the best seen so far. Only
// routes of edges touched by migrations since the previous copy can differ
// from bestRoutes, so only those are refreshed.
func (en *engine) noteState() {
	l := en.curLen
	if l >= en.bestLen-cmpEps {
		return
	}
	en.bestLen = l
	copy(en.bestAssign, en.assign)
	en.bestRoutes.maybeCompact()
	for _, e := range en.touchedEdges {
		en.bestRoutes.set(e, en.routes.route(e))
	}
	en.touchedEdges = en.touchedEdges[:0]
}

// restoreBest reverts to the best recorded state if the current one is
// worse, and reports whether a restore happened. It runs once per BSA run,
// so both engines share the rebuild-based implementation.
func (en *engine) restoreBest() bool {
	if en.curLen <= en.bestLen+cmpEps {
		return false
	}
	copy(en.assign, en.bestAssign)
	en.routes.maybeCompact()
	for e := 0; e < en.g.NumEdges(); e++ {
		en.routes.set(graph.EdgeID(e), en.bestRoutes.route(graph.EdgeID(e)))
	}
	en.rebuild()
	return true
}

// rebuild recomputes the full slot state from (serial, assign, routes).
func (en *engine) rebuild() {
	en.rebuilds++
	en.be.rebuild()
	en.rescanLen()
}

// rescanLen re-derives curLen and its argmax task from scratch.
func (en *engine) rescanLen() {
	var sl float64
	arg := graph.TaskID(0)
	for i := range en.s.Tasks {
		if en.s.Tasks[i].Placed && en.s.Tasks[i].End > sl {
			sl = en.s.Tasks[i].End
			arg = graph.TaskID(i)
		}
	}
	en.curLen, en.lenArg = sl, arg
}

// Event-driven incremental update scaffolding shared by the backends: the
// epoch-stamped worklist. Queued items are consumed in serial-rank order
// by the backend's updateFrom (see backend_ref.go for the semantics every
// backend reproduces).

func (en *engine) queueTask(t graph.TaskID) {
	if en.taskQueued[t] == en.epoch || en.taskDone[t] == en.epoch {
		return
	}
	en.taskQueued[t] = en.epoch
	en.rankPending[en.pos[t]] = en.epoch
	en.pending++
}

func (en *engine) queueMsg(e graph.EdgeID) {
	if en.msgQueued[e] == en.epoch || en.msgDone[e] == en.epoch {
		return
	}
	en.msgQueued[e] = en.epoch
	en.rankPending[en.msgPos[e]] = en.epoch
	en.pending++
}

// updateFrom incrementally re-derives the schedule after a migration of
// mig, processing only the migration's dependency cone. The worklist
// seeding and bookkeeping are shared; the per-item processing is the
// backend's.
func (en *engine) updateFrom(mig graph.TaskID) {
	en.rebuilds++
	en.epoch++
	en.migTask = mig
	en.pending = 0
	en.cache.beginUpdate()
	for _, e := range en.g.In(mig) {
		en.queueMsg(e)
	}
	for _, e := range en.g.Out(mig) {
		en.queueMsg(e)
	}
	en.queueTask(mig)
	en.updEndMax = -1
	en.be.updateFrom(mig)
	if en.taskChanged[en.lenArg] == en.epoch {
		en.rescanLen()
	} else if en.updEndMax > en.curLen {
		en.curLen, en.lenArg = en.updEndMax, en.updEndArg
	}
}

// markLinkDirty flags l's timeline as diverged this update and records it
// in the candidate cache's change list.
func (en *engine) markLinkDirty(l system.LinkID) {
	if en.linkDirtied[l] == en.epoch {
		return
	}
	en.linkDirtied[l] = en.epoch
	en.cache.updLinks = append(en.cache.updLinks, l)
}

// markProcDirty is markLinkDirty for processor timelines.
func (en *engine) markProcDirty(p system.ProcID) {
	if en.procDirtied[p] == en.epoch {
		return
	}
	en.procDirtied[p] = en.epoch
	en.cache.updProcs = append(en.cache.updProcs, p)
}

func hopsEqual(a, b []schedule.Hop) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// placeFrom places serial[k:] in order: each task's incoming messages are
// placed hop-by-hop (insertion-based) before the task itself is placed at
// the earliest insertion slot at or after its DRT. serial is a linear
// extension, so senders are always placed before their messages.
func (en *engine) placeFrom(k int) {
	en.placements += len(en.serial) - k
	for _, t := range en.serial[k:] {
		en.msgPlaces += len(en.g.In(t))
		var drt float64
		for _, e := range en.g.In(t) {
			arr, err := en.s.PlaceMessage(e, en.routes.route(e))
			if err != nil {
				// Routes are maintained to always connect the assigned
				// endpoints; failure here is a bug, not an input condition.
				panic(fmt.Sprintf("core: rebuild message %d: %v", e, err))
			}
			if arr > drt {
				drt = arr
			}
		}
		if _, err := en.s.PlaceTaskEarliest(t, en.assign[t], drt); err != nil {
			panic(fmt.Sprintf("core: rebuild task %d: %v", t, err))
		}
	}
}

// tasksOn returns the tasks currently assigned to p, ordered by their
// current start time (ties by ID). The returned slice is valid until the
// next call. The order is sorted with an insertion sort: the list is
// short, nearly sorted between sweeps, and — unlike sort.Slice — this
// keeps the fixpoint sweep allocation-free.
func (en *engine) tasksOn(p system.ProcID) []graph.TaskID {
	ts := en.taskBuf[:0]
	for i := range en.assign {
		if en.assign[i] == p {
			ts = append(ts, graph.TaskID(i))
		}
	}
	en.taskBuf = ts
	for i := 1; i < len(ts); i++ {
		t := ts[i]
		st := en.s.Tasks[t].Start
		j := i - 1
		for j >= 0 {
			o := ts[j]
			if so := en.s.Tasks[o].Start; so < st || (so == st && o < t) {
				break
			}
			ts[j+1] = ts[j]
			j--
		}
		ts[j+1] = t
	}
	return ts
}

// evalScratch holds the reusable buffers of migration evaluation:
// tentative link reservations accumulated during one evaluation so that
// the candidate task's own messages serialize on shared links without
// mutating real timelines. Reservations are indexed by link and reset via
// the touched list, so steady-state evaluation allocates nothing.
type evalScratch struct {
	extra   [][]schedule.Slot // tentative slots per link, kept sorted by start
	touched []system.LinkID
}

func newEvalScratch(numLinks int) *evalScratch {
	return &evalScratch{extra: make([][]schedule.Slot, numLinks)}
}

func (sc *evalScratch) reset() {
	for _, l := range sc.touched {
		sc.extra[l] = sc.extra[l][:0]
	}
	sc.touched = sc.touched[:0]
}

func (sc *evalScratch) add(l system.LinkID, start, end float64) {
	slots := sc.extra[l]
	if len(slots) == 0 {
		sc.touched = append(sc.touched, l)
	}
	idx := sort.Search(len(slots), func(i int) bool { return slots[i].Start >= start })
	slots = append(slots, schedule.Slot{})
	copy(slots[idx+1:], slots[idx:])
	slots[idx] = schedule.Slot{Start: start, End: end}
	sc.extra[l] = slots
}

// inEdgeEval is one in-edge of the task under evaluation: everything
// evalRow reads per incoming message, gathered once per row instead of
// once per (row, neighbour) pair. hops aliases the live schedule, which
// is fine because evaluation never mutates it.
type inEdgeEval struct {
	fromProc system.ProcID
	fromEnd  float64
	ready    float64
	cost     float64
	commRow  []float64 // sys.Comm[e]; nil for homogeneous links
	hops     []schedule.Hop
	// arr is the message's arrival on the neighbour under evaluation when
	// it needs no link fit, or -1 when it does (see drtBound).
	arr float64
}

// hopDur is the message's transfer time over link.
func (in *inEdgeEval) hopDur(link system.LinkID) float64 {
	if in.commRow != nil {
		return in.commRow[link] * in.cost
	}
	return in.cost
}

// gatherIns collects t's in-edges for evalRow into the engine's reused
// buffer.
func (en *engine) gatherIns(t graph.TaskID) []inEdgeEval {
	ins := en.inEvals[:0]
	for _, e := range en.g.In(t) {
		edge := en.g.Edge(e)
		sm := &en.s.Msgs[e]
		var commRow []float64
		if en.sys.Comm != nil {
			commRow = en.sys.Comm[e]
		}
		ins = append(ins, inEdgeEval{
			fromProc: en.assign[edge.From],
			fromEnd:  en.s.Tasks[edge.From].End,
			ready:    sm.Arrival,
			cost:     edge.Cost,
			commRow:  commRow,
			hops:     sm.Hops,
		})
	}
	en.inEvals = ins
	return ins
}

// drtBound sets each in-edge's arr for neighbour y, reached over link, and
// returns a lower bound on the task's data-ready time there. A message
// from a task on y becomes intra-processor (it arrives when the sender
// ends) and a route already passing through y is truncated there (it
// arrives when that hop ends): both arrivals are exact. Any other message
// is extended by one hop over link, whose earliest fit starts no earlier
// than the message's current arrival, so ready + hop duration bounds its
// arrival from below.
func drtBound(ins []inEdgeEval, y system.ProcID, link system.LinkID) float64 {
	var drt float64
	for i := range ins {
		in := &ins[i]
		in.arr = -1
		if in.fromProc == y {
			in.arr = in.fromEnd
		} else {
			for h := range in.hops {
				if in.hops[h].To == y {
					in.arr = in.hops[h].End
					break
				}
			}
		}
		b := in.arr
		if b < 0 {
			b = in.ready + in.hopDur(link)
		}
		if b > drt {
			drt = b
		}
	}
	return drt
}

// evalRow writes into row[i] the finish time task t would obtain on
// neighbors[i], its current processor's neighbour, for every i whose
// stale[i] is set (every i when stale is nil). It is the paper's local
// evaluation: each incoming message keeps its current hop schedule up to
// the point where it must be extended (or truncated) to reach the
// neighbour, and the new hop takes the earliest insertion slot on the
// connecting link. t's in-edges are gathered once per call however many
// entries are stale, so the cache's partial refresh and the oracle's full
// row share this one routine.
//
// Each entry is bounded before any fit: drtBound plus the execution time
// on the neighbour. Every fit starts at or after its ready time and
// float64 rounding is monotone, so the bound never exceeds the finish
// time a fit would return. An entry whose bound reaches settle is stored
// as +Inf without a fit; settleLine places settle where such an entry
// cannot change step's decision, and the oracle passes +Inf to evaluate
// every entry. Both kinds of entry count as evaluations.
func (en *engine) evalRow(t graph.TaskID, neighbors []system.Adj, row []float64, stale []bool, settle float64) {
	ins := en.gatherIns(t)
	sc := en.sc
	taskCost := en.g.Task(t).Cost
	execRow := en.sys.Exec[t]
	for ni, a := range neighbors {
		if stale != nil && !stale[ni] {
			continue
		}
		en.evaluations++
		y, link := a.Proc, a.Link
		dur := execRow[y] * taskCost
		if drtBound(ins, y, link)+dur >= settle {
			row[ni] = math.Inf(1)
			en.boundSkips++
			continue
		}
		sc.reset()
		var drt float64
		for i := range ins {
			in := &ins[i]
			arr := in.arr
			if arr < 0 {
				hd := in.hopDur(link)
				start := en.be.linkEarliestFitWithExtra(link, in.ready, hd, sc.extra[link])
				sc.add(link, start, start+hd)
				arr = start + hd
			}
			if arr > drt {
				drt = arr
			}
		}
		start := en.be.procEarliestFit(y, drt, dur)
		row[ni] = start + dur
	}
}

// commitMigration moves t from its current processor to neighbour y,
// updating every incident message route and re-deriving the schedule. When
// guard is true the migration is reverted if the resulting schedule is more
// than guardSlack longer than before (the local finish-time evaluation
// cannot see downstream effects; the paper's "bubble up" premise is that
// migrations improve finish times, so a regression of the global objective
// is rolled back). Both engines roll back by restoring the arena-saved
// ground truth (t's assignment and incident routes); the incremental
// engine then runs a second cone update while the oracle rebuilds the
// whole timeline. It reports whether the migration was kept.
func (en *engine) commitMigration(t graph.TaskID, y system.ProcID, guard bool) bool {
	en.touchedEdges = append(en.touchedEdges, en.g.In(t)...)
	en.touchedEdges = append(en.touchedEdges, en.g.Out(t)...)
	kept := true
	if guard {
		en.save(t)
	}
	en.applyMigration(t, y)
	if en.cancelErr != nil {
		// Canceled mid-update: the slot state is torn and the caller is
		// about to abort the run, so neither the guard (whose rollback
		// would run another cone update on torn state) nor the elitism
		// bookkeeping may run.
		return kept
	}
	if guard && en.curLen > en.savedLen*(1+en.cfg.guardSlack)+cmpEps {
		en.restore()
		if en.cfg.fullRebuild {
			en.rebuild()
		} else {
			en.updateFrom(t)
		}
		kept = false
	}
	if kept {
		if en.cache != nil {
			en.cache.stampCommit()
		}
		en.noteState()
	}
	return kept
}

// save snapshots the ground truth a migration of t can touch — t's
// assignment and its incident-edge routes — into the engine's reused
// snapshot arena, together with the current schedule length for the guard
// comparison.
func (en *engine) save(t graph.TaskID) {
	en.savedTask = t
	en.savedAssign = en.assign[t]
	en.savedLen = en.curLen
	en.savedRoutes = en.savedRoutes[:0]
	en.savedBuf = en.savedBuf[:0]
	for _, e := range en.g.In(t) {
		en.appendRouteSave(e)
	}
	for _, e := range en.g.Out(t) {
		en.appendRouteSave(e)
	}
}

func (en *engine) appendRouteSave(e graph.EdgeID) {
	r := en.routes.route(e)
	off := len(en.savedBuf)
	en.savedBuf = append(en.savedBuf, r...)
	en.savedRoutes = append(en.savedRoutes, routeSave{e: e, off: int32(off), n: int32(len(r))})
}

// restore reverts the saved ground truth; the caller re-derives the
// affected timelines afterwards.
func (en *engine) restore() {
	en.assign[en.savedTask] = en.savedAssign
	for _, rs := range en.savedRoutes {
		en.routes.set(rs.e, en.savedBuf[rs.off:rs.off+rs.n])
	}
}

// applyMigration performs the route surgery of a migration (extend
// incoming, prepend outgoing, splice out loops, localize messages whose
// endpoints now coincide) and re-derives the schedule from the migrating
// task's serial position onward.
func (en *engine) applyMigration(t graph.TaskID, y system.ProcID) {
	// Safe compaction point: no route views are held here, and every
	// mutation below writes through the arena.
	en.routes.maybeCompact()
	pivot := en.assign[t]
	link := system.LinkID(-1) // pivot->y link, resolved at most once
	for _, e := range en.g.In(t) {
		u := en.g.Edge(e).From
		if en.assign[u] == y {
			en.routes.clear(e)
			continue
		}
		if link < 0 {
			link, _ = en.sys.Net.LinkBetween(pivot, y)
		}
		r := en.routes.extend(e, link)
		if en.cfg.pruneRoutes {
			r = en.norm.Normalize(en.sys.Net, en.assign[u], r)
			en.routes.truncateTail(e, len(r))
		}
	}
	for _, e := range en.g.Out(t) {
		w := en.g.Edge(e).To
		if en.assign[w] == y {
			en.routes.clear(e)
			continue
		}
		if link < 0 {
			link, _ = en.sys.Net.LinkBetween(pivot, y)
		}
		r := en.routes.prepend(e, link)
		if en.cfg.pruneRoutes {
			r = en.norm.Normalize(en.sys.Net, y, r)
			en.routes.truncateTail(e, len(r))
		}
	}
	en.assign[t] = y
	if en.cfg.fullRebuild {
		en.rebuild()
	} else {
		en.updateFrom(t)
	}
}
