// The structure-of-arrays (SoA) slot store of the incremental engine.
//
// A full rebuild replays (serial, assign, routes) from scratch, and its
// result for any item is a deterministic function of the placements of
// strictly earlier serial turns on the timelines the item touches. After
// a migration only the moved task's dependency cone can change, so the
// cone update (updateFrom) processes a worklist of potentially affected
// items in serial order and leaves everything else where it is.
//
// The store never strips a timeline to make it look like a rebuild
// paused at the current turn. Visibility does that work instead: every
// slot carries the processing-order key of its item, and while the cone
// update processes the item with key K, a slot is visible to its fit
// queries iff its key is < K. The serial order is fixed for the whole
// run, so keys are static:
//
//	message hop of edge e: rank(dest)<<20 | In-index
//	task at rank r:        r<<20 | taskKeyTag
//
// exactly the order a rebuild places items in. A rebuild paused at item
// I's turn holds precisely the slots of items with key < K(I); the cone
// invariant ("every item whose placement would change is queued;
// unqueued items' slots already equal their rebuild placement") then
// makes the visible subsequence bit-identical to the rebuild-time
// timeline, so fits over it return bit-identical values.
//
// What follows from that:
//
//   - A queued item is recomputed read-only against the visible slots and
//     compared with its old placement. Unchanged (the majority) means
//     zero mutation: the old slots were never removed.
//   - An unchanged item marks nothing dirty and queues no successors, so
//     propagation stops exactly where placements are provably unchanged.
//   - A timeline whose content first diverges is scanned once per update,
//     and only the owners with key > K are queued (integer compares).
//   - Every queue source yields keys strictly above the current item's,
//     so within a rank the In()-order pass never runs twice.
//
// Mutations (the minority) remove the item's old slots by owner and
// insert the new ones, evicting any *invisible* physical slot they
// overlap (its owner is queued, per slot). A visible slot can never be
// evicted: the fit that produced the position avoided all visible slots,
// so an overlap would contradict the fit — evict panics if that
// invariant breaks.
//
// The price of never stripping is that every later, invisible slot stays
// in place: each fit bisects the whole timeline and each insertion or
// removal shifts its whole suffix. Where many links share the traffic
// (fully connected networks) timelines stay short and the store wins;
// where a few long link timelines absorb every multi-hop route (rings,
// hypercubes, meshes) that work costs more than the stripping it avoids,
// so the density rule (defaultBackend) runs the reference backend there.

package core

import (
	"fmt"
	"math"

	"repro/internal/schedule"
	"repro/sched/graph"
	"repro/sched/system"
)

// allVisible is the visibility bound for fit queries between updates
// (candidate evaluation): every slot is current, so all keys pass.
const allVisible = int64(math.MaxInt64)

// soaSlot is one reserved span: [start, end) occupied by owner, placed at
// processing-order key.
type soaSlot struct {
	start, end float64
	owner, key int64
}

// soaTL is one resource's slot state in structure-of-arrays layout,
// sorted by start (ends monotone up to timeEps, like Timeline).
//
// sufMin[i] is the minimum key over slots[i:]. Keys track processing
// order, which tracks time order closely, so for any visibility bound the
// invisible slots form (approximately) a physical suffix — sufMin lets
// the fit scans stop at its edge in O(1) instead of stepping over every
// invisible slot. Without it a fit whose answer is "after the last
// visible slot" (the common case: items place near the frontier) would
// scan the whole remaining array, which is exactly the linear churn this
// backend exists to avoid.
type soaTL struct {
	slots  []soaSlot
	sufMin []int64
	memo   soaMemo
	short  int // slots (any key) shorter than memoTol at their end time
}

// soaMemo is schedule.Timeline's rejected-run memo (see fitMemo there)
// over a visible subsequence: a scan with visibility vis walked [lo, hi)
// without finding room, and no free interval there is wider than gap. A
// scan with a visibility bound >= vis sees the same slots plus some
// later-keyed ones, which only narrow free intervals, so it may jump as
// well; one with a lower bound — the start of a new cone update — may
// not. Removing or moving a slot keyed below vis that overlaps the span
// drops the memo; slots keyed at or above vis were never part of it. The
// short-slot rule covers every physical slot, since a later scan may see
// any of them.
type soaMemo struct {
	lo, hi, gap, tol float64
	vis              int64
}

// memoTol mirrors schedule's memo margin: a few TimeEps for the tolerant
// comparisons plus a relative term for float64 rounding at hi.
func memoTol(hi float64) float64 { return 4*schedule.TimeEps + math.Abs(hi)*0x1p-40 }

func isShortSlot(start, end float64) bool { return end-start < memoTol(end) }

// window returns the candidate starts [from, to) from which a scan for dur
// with visibility vis may jump to m.hi (empty if none may).
func (m *soaMemo) window(dur float64, vis int64) (from, to float64) {
	if vis >= m.vis && dur > m.gap+m.tol {
		return m.lo, m.hi - m.tol
	}
	return math.Inf(1), 0
}

func (tl *soaTL) noteInsert(start, end float64) {
	if isShortSlot(start, end) {
		tl.short++
		tl.memo = soaMemo{}
	}
}

func (tl *soaTL) noteRemove(sl *soaSlot) {
	if isShortSlot(sl.start, sl.end) {
		tl.short--
	}
	if sl.key < tl.memo.vis && sl.start < tl.memo.hi && sl.end > tl.memo.lo {
		tl.memo = soaMemo{}
	}
}

func (tl *soaTL) len() int { return len(tl.slots) }

func (tl *soaTL) reset() {
	tl.slots = tl.slots[:0]
	tl.sufMin = tl.sufMin[:0]
	tl.memo, tl.short = soaMemo{}, 0
}

// fixSufMin re-establishes the suffix-min invariant for positions <= i
// after a mutation at i (fixSufMinRange with a single-index range). Position i itself is recomputed unconditionally
// — its stored value is a placeholder (insert) or a trivially shifted
// value (remove), so matching the recomputation proves nothing about the
// prefix. From i-1 leftward every stored value is the exact pre-mutation
// suffix-min, so the walk can stop at the first position whose value is
// unchanged: earlier entries depend only on unchanged inputs past that
// point. The walk is near-O(1) amortized.
func (tl *soaTL) fixSufMin(i int) { tl.fixSufMinRange(i, i) }

// fixSufMinRange re-establishes the suffix-min invariant after mutations
// anywhere in [lo, hi]. Entries in the range are recomputed
// unconditionally (their stored values may be stale shifted copies);
// below lo every stored value is the exact pre-mutation suffix-min, so
// the walk stops at the first unchanged position.
func (tl *soaTL) fixSufMinRange(lo, hi int) {
	n := len(tl.slots)
	if hi > n-1 {
		hi = n - 1
	}
	for i := hi; i >= 0; i-- {
		m := tl.slots[i].key
		if i+1 < n && tl.sufMin[i+1] < m {
			m = tl.sufMin[i+1]
		}
		if i < lo && tl.sufMin[i] == m {
			return
		}
		tl.sufMin[i] = m
	}
}

// searchEndAbove mirrors Timeline.searchEndAbove over the physical
// slots: the first index whose End exceeds t. Invisible slots do not
// perturb it — ends are monotone over the whole physical array, so every
// visible slot ending after t sits at or after the returned index.
func (tl *soaTL) searchEndAbove(t float64) int {
	s := tl.slots
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid].end > t {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// searchStartAtLeast mirrors Timeline.searchStartAtLeast.
func (tl *soaTL) searchStartAtLeast(t float64) int {
	s := tl.slots
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid].start >= t {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// earliestFit is Timeline.earliestFit restricted to slots with key < vis;
// bit-identical arithmetic (same epsilon guards, same scan order over the
// visible subsequence), and the same rejected-run memo.
func (tl *soaTL) earliestFit(ready, dur float64, vis int64) float64 {
	if ready < 0 {
		ready = 0
	}
	s := tl.slots
	// Frontier fast path: nothing ends after ready, so the item fits there.
	if len(s) == 0 || s[len(s)-1].end <= ready {
		return ready
	}
	start, lo, gap := ready, ready, math.Inf(-1)
	from, to := tl.memo.window(dur, vis)
	if ready >= from && ready < to {
		start, lo, gap, from = tl.memo.hi, tl.memo.lo, tl.memo.gap, math.Inf(1)
	}
	for i := tl.searchEndAbove(start); i < len(s); i++ {
		sl := &s[i]
		if sl.key >= vis {
			if tl.sufMin[i] >= vis {
				// Every remaining slot is invisible: the item fits at
				// start.
				break
			}
			continue
		}
		if sl.end <= start+schedule.TimeEps {
			if start != ready {
				lo = math.Inf(1) // skipped after a block: record nothing
			}
			continue
		}
		if start+dur <= sl.start+schedule.TimeEps {
			break
		}
		if g := sl.start - start; g > gap {
			gap = g
		}
		start = sl.end // > start >= ready, as in Timeline's scan
		if start >= from {
			if start < to {
				start, gap = tl.memo.hi, max(gap, tl.memo.gap)
				i = tl.searchEndAbove(start) - 1
			}
			from = math.Inf(1)
		}
	}
	if start > lo && tl.short == 0 {
		tl.memo = soaMemo{lo: lo, hi: start, gap: gap, tol: memoTol(start), vis: vis}
	}
	return start
}

// earliestFitExtra is Timeline.EarliestFitWithExtra restricted to slots
// with key < vis: a merge scan of the visible subsequence with the
// tentative extra slots (sorted by start), timeline first on start ties,
// exactly as the reference merges.
func (tl *soaTL) earliestFitExtra(ready, dur float64, extra []schedule.Slot, vis int64) float64 {
	if ready < 0 {
		ready = 0
	}
	start := ready
	s := tl.slots
	i := len(s)
	if i > 0 && s[i-1].end > ready {
		i = tl.searchEndAbove(ready)
	}
	j := 0
	for i < len(s) || j < len(extra) {
		var sStart, sEnd float64
		if j >= len(extra) || (i < len(s) && s[i].start <= extra[j].Start) {
			if tl.sufMin[i] >= vis {
				// Rest of the timeline is invisible; drain the extras.
				i = len(s)
				continue
			}
			if s[i].key >= vis {
				i++
				continue
			}
			sStart, sEnd = s[i].start, s[i].end
			i++
		} else {
			sStart, sEnd = extra[j].Start, extra[j].End
			j++
		}
		if sEnd <= start+schedule.TimeEps {
			continue
		}
		if start+dur <= sStart+schedule.TimeEps {
			return start
		}
		start = sEnd
		if start < ready {
			start = ready
		}
	}
	return start
}

// removeAt removes the slot at index i.
func (tl *soaTL) removeAt(i int) {
	tl.noteRemove(&tl.slots[i])
	tl.slots = append(tl.slots[:i], tl.slots[i+1:]...)
	tl.sufMin = append(tl.sufMin[:i], tl.sufMin[i+1:]...)
	tl.fixSufMin(i)
}

// insertAt inserts a slot at index i, shifting later slots right.
func (tl *soaTL) insertAt(i int, start, end float64, owner, key int64) {
	tl.noteInsert(start, end)
	tl.slots = append(tl.slots, soaSlot{})
	copy(tl.slots[i+1:], tl.slots[i:])
	tl.slots[i] = soaSlot{start, end, owner, key}
	tl.sufMin = append(tl.sufMin, 0)
	copy(tl.sufMin[i+1:], tl.sufMin[i:])
	tl.sufMin[i] = key
	tl.fixSufMin(i)
}

// afterEarlierPoints moves insertion index idx of a zero-length slot
// [start, end] keyed key past the zero-length slots at the same start
// that a rebuild would place before it: those keyed at or below key. A
// rebuild appends each zero-length slot after those already at its
// start, and the service order that replays a schedule follows the
// timeline order, so same-instant slots must keep placement order.
func (tl *soaTL) afterEarlierPoints(idx int, start, end float64, key int64) int {
	if end > start+schedule.TimeEps {
		return idx
	}
	s := tl.slots
	for idx < len(s) && s[idx].start == start && s[idx].end <= start+schedule.TimeEps && s[idx].key <= key {
		idx++
	}
	return idx
}

// findOwner locates the slot starting at exactly start with the given
// owner, or -1 if absent (an insertion may have evicted it already).
// Starts are stored verbatim, so exact comparison finds it; equal starts
// (zero-duration slots) are scanned through.
func (tl *soaTL) findOwner(start float64, owner int64) int {
	s := tl.slots
	for i := tl.searchStartAtLeast(start); i < len(s) && s[i].start <= start; i++ {
		if s[i].owner == owner {
			return i
		}
	}
	return -1
}

// removeOwner removes the slot found by findOwner, reporting presence.
func (tl *soaTL) removeOwner(start float64, owner int64) bool {
	if i := tl.findOwner(start, owner); i >= 0 {
		tl.removeAt(i)
		return true
	}
	return false
}

// materialize writes the slots into dst.
func (tl *soaTL) materialize(dst *schedule.Timeline) {
	slots := make([]schedule.Slot, len(tl.slots))
	for i, sl := range tl.slots {
		slots[i] = schedule.Slot{Start: sl.start, End: sl.end, Owner: sl.owner}
	}
	dst.AdoptSlots(slots)
}

// tryMoveSlot re-places the slot at index i to [start, end) with a single
// range shift — the common mutation is a small move, so this does a
// fraction of the remove+insert memmove work and one binary search. It
// reports false without mutating when another slot overlaps the target
// (same epsilon tolerance as the eviction loops; ends are monotone, so
// one probe on each side of the insertion point decides): the caller then
// takes the general remove+insertEvict path. On success the array is
// exactly removeAt(i) followed by insertAt at the fit position.
func (tl *soaTL) tryMoveSlot(i int, start, end float64, owner, key int64) bool {
	if end <= start+schedule.TimeEps {
		// Zero-length slots are ordered among their peers by key; the
		// general path does that (see afterEarlierPoints).
		return false
	}
	s := tl.slots
	// The new position is usually within a few slots of the old one: find
	// the insertion point by walking from i rather than a fresh search
	// (the walk distance is paid again in the shift below, so this never
	// changes the complexity).
	var j int
	if i+1 < len(s) && s[i+1].start < start {
		k := i + 2
		for k < len(s) && s[k].start < start {
			k++
		}
		j = k
	} else {
		k := i + 1
		if k > len(s) {
			k = len(s)
		}
		for k > 0 && s[k-1].start >= start {
			k--
		}
		j = k
	}
	for k := j - 1; k >= 0; k-- {
		if k == i {
			continue
		}
		if s[k].end > start+schedule.TimeEps {
			return false
		}
		break
	}
	for k := j; k < len(s); k++ {
		if k == i {
			continue
		}
		if s[k].start < end-schedule.TimeEps {
			return false
		}
		break
	}
	tl.noteRemove(&s[i])
	tl.noteInsert(start, end)
	if j > i {
		j--
		copy(s[i:j], s[i+1:j+1])
	} else if j < i {
		copy(s[j+1:i+1], s[j:i])
	}
	s[j] = soaSlot{start, end, owner, key}
	lo, hi := i, j
	if lo > hi {
		lo, hi = hi, lo
	}
	tl.fixSufMinRange(lo, hi)
	return true
}

// soaRes is one resource of the store — a processor, whose owners are
// tasks, or a link, whose owners are message hops — with the removals it
// saw in the current cone update.
type soaRes struct {
	soaTL
	link bool

	// The dirty-frontier refinement of a per-timeline divergence flag:
	// the time spans of every slot REMOVED (explicitly or by eviction)
	// from the resource this epoch. A per-timeline flag alone forces every
	// later item on a diverged timeline through a fit recompute, and
	// profiles show most of those come back unchanged.
	//
	// Removals are the only mutations that can move an unchanged-input
	// item's fit. An insertion by an earlier-keyed item can never perturb
	// it: inserting into the item's own gap evicts it instead (a removal,
	// and one that intersects the window below), and inserting into free
	// space only shrinks gaps the item's old fit already rejected as too
	// small. A removal matters only if it intersects [ready, oldEnd) —
	// the fit inspects nothing behind its ready time or beyond the gap it
	// accepts, and mutations by later-keyed items are invisible to it
	// anyway. Outside that window the item is provably unchanged and
	// completes in O(1) without touching the timeline.
	// The resource keeps a short list of disjoint-ish removal intervals
	// (collapsed to one aggregate when it would overflow); a single wide
	// span turns one distant eviction into a blanket recompute for the
	// whole timeline, and profiles show the precision matters.
	// Each interval also carries the removed slot's processing-order key:
	// a checker ignores removals keyed at or above its own visibility —
	// those slots were never part of its view.
	nIv        int
	ivLo, ivHi [mutIvCap]float64
	ivKey      [mutIvCap]int64
	divStamp   uint32

	// Owner-queueing watermark: the lowest freed point the resource has
	// been suffix-scanned from this epoch. Items are processed in strictly
	// increasing key order and every scan filters on "key above the item
	// scanning", so an earlier scan's filter is a superset of any later
	// removal's needs: re-scanning [watermark, inf) can only re-queue done
	// items. A later removal therefore scans just the extension
	// [freedLo, watermark).
	scanLo    float64
	scanStamp uint32
}

// soaBackend binds the SoA slot state to an engine.
type soaBackend struct {
	en    *engine
	procs []soaRes
	links []soaRes

	// msgReady is each message's sender-end time as of its last
	// (re)placement or skip-validation. A sender that moved *later* but
	// not past hop 0's start leaves the hops provably unchanged: the new
	// fit window nests inside the old one, the old gap is still the
	// earliest feasible, and later hops chain off hop 0's unchanged end.
	msgReady []float64

	// taskEvict / msgEvict stamp an item whose slot (any hop, for a
	// message) was evicted this epoch. Eviction is the one mutation that
	// invalidates an item's placement without changing its inputs, and
	// the clean checks cannot see it: the eviction interval carries the
	// evicted item's own key (which its later skip check rightly ignores
	// for gap analysis) and may be fully re-covered by the evictor's
	// insertion. A stamped item must re-place unconditionally; a stamped
	// task's slot needs no search to remove (a message's hops are still
	// searched for, since only some of them may be gone).
	taskEvict []uint32
	msgEvict  []uint32

	// taskDrt is each task's data-ready time as of its last (re)placement.
	// drtTouched fires when any in-edge arrival moves, but the placement
	// depends only on the max; recomputing the max (a cheap scan the
	// recompute path needs anyway) and comparing against this lets arrival
	// shuffles below the frontier finish without a fit.
	taskDrt []float64

	// sc accumulates a message's tentative earlier hops during the
	// read-only recomputation, so routes revisiting a link (the
	// no-route-pruning ablation) serialize exactly as sequential physical
	// reservation would.
	sc *evalScratch
	// newHops holds the recomputed hop sequence for comparison with the
	// old placement.
	newHops []schedule.Hop
}

func newSoaBackend(en *engine) *soaBackend {
	nT, nE := en.g.NumTasks(), en.g.NumEdges()
	nL := en.sys.Net.NumLinks()
	b := &soaBackend{
		en:        en,
		procs:     make([]soaRes, en.sys.Net.NumProcs()),
		links:     make([]soaRes, nL),
		taskEvict: make([]uint32, nT),
		msgEvict:  make([]uint32, nE),
		taskDrt:   make([]float64, nT),
		msgReady:  make([]float64, nE),
		sc:        newEvalScratch(nL),
	}
	for l := range b.links {
		b.links[l].link = true
	}
	return b
}

func (b *soaBackend) taskKey(t graph.TaskID) int64 { return taskItemKey(b.en.pos[t]) }
func (b *soaBackend) msgKey(e graph.EdgeID) int64 {
	return msgItemKey(b.en.msgPos[e], b.en.inIndex[e])
}

// rebuild derives the slot state from scratch, placing every item in
// serial order with the same fits the cone update uses. Rebuilds are rare
// — engine construction and the final elitism restore.
func (b *soaBackend) rebuild() {
	en := b.en
	en.s.Reset()
	for p := range b.procs {
		b.procs[p].reset()
	}
	for l := range b.links {
		b.links[l].reset()
	}
	en.placements += len(en.serial)
	for _, u := range en.serial {
		var drt float64
		for _, e := range en.g.In(u) {
			en.msgPlaces++
			vis := b.msgKey(e)
			sm := &en.s.Msgs[e]
			b.msgReady[e] = en.s.Tasks[en.g.Edge(e).From].End
			sm.Hops = append(sm.Hops[:0], b.fitHops(e, vis)...)
			sm.Arrival, sm.Placed = b.msgReady[e], true
			for h, hop := range sm.Hops {
				b.insertEvict(&b.links[hop.Link], hop.Start, hop.End, schedule.MsgOwner(e, h), vis)
				sm.Arrival = hop.End
			}
			drt = max(drt, sm.Arrival)
		}
		b.taskDrt[u] = drt
		p, vis := en.assign[u], b.taskKey(u)
		dur := en.s.ExecDuration(u, p)
		start := b.procs[p].earliestFit(drt, dur, vis)
		en.s.Tasks[u] = schedule.TaskSlot{Proc: p, Start: start, End: start + dur, Placed: true}
		b.insertEvict(&b.procs[p], start, start+dur, schedule.TaskOwner(u), vis)
	}
}

// finalize materializes the slot store into the Schedule's Timelines.
// Idempotent; the store is authoritative between updates.
func (b *soaBackend) finalize() {
	en := b.en
	for p := range b.procs {
		b.procs[p].materialize(en.s.ProcTimeline(system.ProcID(p)))
	}
	for l := range b.links {
		b.links[l].materialize(en.s.LinkTimeline(system.LinkID(l)))
	}
}

func (b *soaBackend) procEarliestFit(p system.ProcID, ready, dur float64) float64 {
	return b.procs[p].earliestFit(ready, dur, allVisible)
}

func (b *soaBackend) linkEarliestFitWithExtra(l system.LinkID, ready, dur float64, extra []schedule.Slot) float64 {
	return b.links[l].earliestFitExtra(ready, dur, extra, allVisible)
}

// updateFrom consumes the queued cone in serial-rank order: queued items
// only ever sit at the current rank or later, so a single pass over the
// pending-rank flags replaces a priority queue. Within a rank, messages
// go in In() order before the task, as in a rebuild; every queue source
// (divergence scans, evictions, arrival/changed propagation) yields keys
// strictly above the item being processed, so a surfaced same-rank
// sibling always has a larger In-index and is reached by the same pass.
func (b *soaBackend) updateFrom(mig graph.TaskID) {
	en := b.en
	n := len(en.serial)
	for rank := en.pos[mig]; rank < n && en.pending > 0; rank++ {
		if en.rankPending[rank] != en.epoch {
			continue
		}
		u := en.serial[rank]
		for _, e := range en.g.In(u) {
			if en.msgQueued[e] != en.epoch || en.msgDone[e] == en.epoch {
				continue
			}
			b.processMsg(e)
			en.pending--
			if en.pollCancel() {
				return
			}
		}
		if en.taskQueued[u] == en.epoch && en.taskDone[u] != en.epoch {
			b.processTask(u)
			en.pending--
			if en.pollCancel() {
				return
			}
		}
	}
}

// processMsg handles one queued message. A cheap dirty test proves most
// queued items unchanged — and here that proof finishes the item
// outright: the old slots were never removed, so there is no restore to
// run. A dirty item is recomputed read-only against the visible slots and
// mutates only on actual divergence: recomputation is always sound (the
// visible subsequence equals the rebuild-time timeline at this item's
// turn), and an unchanged result means the old slots already ARE the
// placement. The dirty test reads every way a placement can move:
// msgEvict (one of the message's hops was evicted), taskChanged (its
// sender's slot moved; msgReady keeps one later move clean) and the
// clean windows (a removal that a hop's fit could see). Insertions need
// no test: they evict on overlap, and otherwise only shrink gaps the old
// fits already rejected.
func (b *soaBackend) processMsg(e graph.EdgeID) {
	en := b.en
	vis := b.msgKey(e)
	edge := en.g.Edge(e)
	sm := &en.s.Msgs[e]
	dirty := edge.From == en.migTask || edge.To == en.migTask ||
		b.msgEvict[e] == en.epoch
	if !dirty {
		// Each hop re-derives identically unless its link's content
		// changed inside the window the hop's fit inspects; a
		// non-migrating message's hops sit exactly on its route links,
		// one hop per link, so checking the placed hops covers the
		// route. Induction along the route: hop j's ready time is hop
		// j-1's unchanged end. For hop 0 the ready time is the sender's
		// end — which may itself have moved. A move to *later* that
		// stays at or below hop 0's start is still provably unchanged:
		// the new fit window nests inside the one validated at
		// msgReady, so no earlier gap can appear, and the old gap's
		// continued availability is exactly what clean certifies.
		// A move earlier (or past hop 0's start, or with no hops to pin
		// the arrival) must recompute.
		ready := en.s.Tasks[edge.From].End
		if en.taskChanged[edge.From] == en.epoch &&
			(len(sm.Hops) == 0 || ready < b.msgReady[e] || ready > sm.Hops[0].Start) {
			dirty = true
		}
		if !dirty {
			for h := range sm.Hops {
				hop := &sm.Hops[h]
				// The window ends at the hop's old start, not its end:
				// slots are disjoint, so no visible slot was ever removed
				// from inside the hop's own occupied span — only a removal
				// opening a gap strictly before it can move the fit.
				if !b.clean(&b.links[hop.Link], ready, hop.Start, hop.End, vis) {
					dirty = true
					break
				}
				ready = hop.End
			}
		}
		if !dirty {
			b.msgReady[e] = en.s.Tasks[edge.From].End
			en.msgDone[e] = en.epoch
			return
		}
	}
	ready := en.s.Tasks[edge.From].End
	b.msgReady[e] = ready
	var hops []schedule.Hop
	if en.cfg.pruneRoutes && edge.From != en.migTask && edge.To != en.migTask {
		// Routes are rewritten only for the migrating task's edges, so this
		// message's route — and with it every hop's link, endpoints and
		// duration inputs — is unchanged: copy the static parts from the
		// placed hops and recompute only the fits. Pruned routes are simple
		// paths, so the per-hop tentative overlay can never be consulted.
		var commRow []float64
		if en.sys.Comm != nil {
			commRow = en.sys.Comm[e]
		}
		hops = b.newHops[:0]
		for h := range sm.Hops {
			oh := &sm.Hops[h]
			dur := edge.Cost
			if commRow != nil {
				dur = commRow[oh.Link] * edge.Cost
			}
			start := b.links[oh.Link].earliestFit(ready, dur, vis)
			hops = append(hops, schedule.Hop{Link: oh.Link, From: oh.From, To: oh.To, Start: start, End: start + dur})
			ready = start + dur
		}
		b.newHops = hops
	} else {
		hops = b.fitHops(e, vis)
		if len(hops) > 0 {
			ready = hops[len(hops)-1].End
		}
	}
	arr := ready
	oldArr := sm.Arrival
	hopsChanged := !hopsEqual(hops, sm.Hops)
	if hopsChanged {
		en.msgPlaces++
		// Hop-by-hop re-placement needs a simple path: on a route that
		// revisits a link (the no-route-pruning ablation), an earlier new
		// hop can overlap a later old hop of the same message, which is
		// still in place and keyed like the hop itself, so it could not be
		// evicted. The general path below removes every old hop first.
		sameRoute := en.cfg.pruneRoutes && len(hops) == len(sm.Hops)
		if sameRoute {
			for h := range hops {
				if hops[h].Link != sm.Hops[h].Link {
					sameRoute = false
					break
				}
			}
		}
		if sameRoute {
			// Fixed route (every non-migrating message): re-place each
			// changed hop with a single range shift on its own link when
			// nothing needs evicting; physically identical hops are left
			// untouched.
			for h := range hops {
				old, nh := &sm.Hops[h], &hops[h]
				if *nh == *old {
					continue
				}
				tl, owner := &b.links[nh.Link], schedule.MsgOwner(e, h)
				i := tl.findOwner(old.Start, owner)
				if i >= 0 && tl.tryMoveSlot(i, nh.Start, nh.End, owner, vis) {
					b.noteMut(tl, old.Start, old.End, nh.Start, nh.End, vis, vis)
					continue
				}
				if i >= 0 {
					tl.removeAt(i)
					b.noteMut(tl, old.Start, old.End, nh.Start, nh.End, vis, vis)
				}
				b.insertEvict(tl, nh.Start, nh.End, owner, vis)
			}
		} else {
			for h := range sm.Hops {
				hop := &sm.Hops[h]
				if !b.links[hop.Link].removeOwner(hop.Start, schedule.MsgOwner(e, h)) {
					continue
				}
				// The replacement hop on the same link (same index for a
				// non-migrating message's fixed route) re-covers its span;
				// only the uncovered remainder is genuinely freed.
				covS, covE := hop.End, hop.End
				if h < len(hops) && hops[h].Link == hop.Link {
					covS, covE = hops[h].Start, hops[h].End
				}
				b.noteMut(&b.links[hop.Link], hop.Start, hop.End, covS, covE, vis, vis)
			}
			for h := range hops {
				hop := &hops[h]
				b.insertEvict(&b.links[hop.Link], hop.Start, hop.End, schedule.MsgOwner(e, h), vis)
			}
		}
		sm.Hops = append(sm.Hops[:0], hops...)
		en.updMsgs = append(en.updMsgs, e)
	} else if arr != oldArr {
		// Arrival moved with identical hops: an intra-processor message
		// tracking its sender's slot.
		en.updMsgs = append(en.updMsgs, e)
	}
	sm.Arrival = arr
	sm.Placed = true
	if arr != oldArr {
		en.drtTouched[edge.To] = en.epoch
		en.queueTask(edge.To)
	}
	en.msgDone[e] = en.epoch
}

// fitHops computes message e's hop schedule along its current route
// against the slots keyed below vis, hop by hop from its sender's end,
// into the reused newHops buffer.
func (b *soaBackend) fitHops(e graph.EdgeID, vis int64) []schedule.Hop {
	en := b.en
	from := &en.s.Tasks[en.g.Edge(e).From]
	ready, p := from.End, from.Proc
	hops := b.newHops[:0]
	// Pruned routes are simple paths — no link repeats — so the tentative
	// overlay of the message's own earlier hops can never be consulted and
	// the scratch bookkeeping is skipped entirely; the merge scan only
	// runs for the no-pruning ablation's link-revisiting routes.
	sc := b.sc
	if !en.cfg.pruneRoutes {
		sc.reset()
	}
	for _, l := range en.routes.route(e) {
		lk := en.sys.Net.Link(l)
		if !lk.Has(p) {
			panic(fmt.Sprintf("core: message %d: route link %d does not touch P%d", e, l, p+1))
		}
		dur := en.s.HopDuration(e, l)
		var start float64
		if en.cfg.pruneRoutes || len(sc.extra[l]) == 0 {
			start = b.links[l].earliestFit(ready, dur, vis)
		} else {
			start = b.links[l].earliestFitExtra(ready, dur, sc.extra[l], vis)
		}
		if !en.cfg.pruneRoutes {
			sc.add(l, start, start+dur)
		}
		next := lk.Other(p)
		hops = append(hops, schedule.Hop{Link: l, From: p, To: next, Start: start, End: start + dur})
		ready = start + dur
		p = next
	}
	b.newHops = hops
	return hops
}

// processTask handles one queued task: the cheap dirty test finishes
// provably unchanged items outright (their slot is intact), dirty ones are
// recomputed and mutate only on actual divergence.
func (b *soaBackend) processTask(u graph.TaskID) {
	en := b.en
	vis := b.taskKey(u)
	st := &en.s.Tasks[u]
	// taskDrt is revalidated (skip) or rewritten (recompute) by every
	// update that moves an in-arrival — arrivals settle before their
	// target's turn, and any change queues the target with drtTouched set.
	// An un-touched task's memo therefore still equals the max, and the
	// in-edge scan is skipped.
	drt := b.taskDrt[u]
	if en.drtTouched[u] == en.epoch {
		drt = 0
		for _, e := range en.g.In(u) {
			if a := en.s.Msgs[e].Arrival; a > drt {
				drt = a
			}
		}
	}
	// drtTouched fires on any arrival move, but only the max matters: a
	// task whose data-ready time is unchanged re-derives identically
	// unless its processor's content changed inside the fit's window.
	evicted := b.taskEvict[u] == en.epoch
	if u != en.migTask && !evicted &&
		drt == b.taskDrt[u] && b.clean(&b.procs[en.assign[u]], drt, st.Start, st.End, vis) {
		en.taskDone[u] = en.epoch
		return
	}
	b.taskDrt[u] = drt
	p := en.assign[u]
	dur := en.s.ExecDuration(u, p)
	start := b.procs[p].earliestFit(drt, dur, vis)
	nw := schedule.TaskSlot{Proc: p, Start: start, End: start + dur, Placed: true}
	if nw != *st {
		en.placements++
		tl, owner := &b.procs[st.Proc], schedule.TaskOwner(u)
		i := -1
		if !evicted {
			i = tl.findOwner(st.Start, owner)
		}
		if i >= 0 && nw.Proc == st.Proc && tl.tryMoveSlot(i, nw.Start, nw.End, owner, vis) {
			// Same processor (every non-migrating task) with nothing to
			// evict: a single range shift.
			b.noteMut(tl, st.Start, st.End, nw.Start, nw.End, vis, vis)
		} else {
			if i >= 0 {
				tl.removeAt(i)
				covS, covE := st.End, st.End
				if nw.Proc == st.Proc {
					covS, covE = nw.Start, nw.End
				}
				b.noteMut(tl, st.Start, st.End, covS, covE, vis, vis)
			}
			b.insertEvict(&b.procs[p], nw.Start, nw.End, owner, vis)
		}
		*st = nw
		en.taskChanged[u] = en.epoch
		if nw.End > en.updEndMax {
			en.updEndMax, en.updEndArg = nw.End, u
		}
		en.updTasks = append(en.updTasks, u)
		for _, e := range en.g.Out(u) {
			// An intra-processor out-message has no hops to fit and no
			// slots to evict — its full processing reduces to copying the
			// new end time into its arrival. Settling it here skips the
			// queue round-trip and the per-rank machinery entirely. Only
			// valid away from the migrating task, whose edges can change
			// route shape (old hops may need physical removal).
			if u != en.migTask && len(en.routes.route(e)) == 0 &&
				en.g.Edge(e).To != en.migTask {
				b.settleEmptyMsg(e, nw.End)
				continue
			}
			en.queueMsg(e)
		}
	}
	en.taskDone[u] = en.epoch
}

// settleEmptyMsg completes an empty-route (intra-processor) message's
// turn in place: arrival tracks the sender's end, nothing else exists.
func (b *soaBackend) settleEmptyMsg(e graph.EdgeID, arr float64) {
	en := b.en
	if en.msgQueued[e] == en.epoch && en.msgDone[e] != en.epoch {
		en.pending--
	}
	en.msgDone[e] = en.epoch
	b.msgReady[e] = arr
	sm := &en.s.Msgs[e]
	if sm.Arrival != arr {
		sm.Arrival = arr
		to := en.g.Edge(e).To
		en.drtTouched[to] = en.epoch
		en.queueTask(to)
		en.updMsgs = append(en.updMsgs, e)
	}
}

// mutIvCap bounds each resource's removal-interval list; on overflow the
// list collapses to its aggregate hull, which is always sound (wider
// intervals and smaller keys only force more recomputes, never fewer).
const mutIvCap = 16

// addIv records the removal [start, end) of a slot keyed k in the
// interval list, merging with any entry it overlaps or nearly touches.
// Merging takes the min key (relevant to a checker when either part
// was); merging distant entries and the overflow collapse only widen
// coverage, which is safe.
func (r *soaRes) addIv(start, end float64, k int64) {
	i := 0
	for ; i < r.nIv; i++ {
		if end >= r.ivLo[i]-schedule.TimeEps && start <= r.ivHi[i]+schedule.TimeEps {
			break
		}
	}
	if i == mutIvCap {
		for j := 1; j < r.nIv; j++ {
			r.ivLo[0], r.ivHi[0], r.ivKey[0] = min(r.ivLo[0], r.ivLo[j]), max(r.ivHi[0], r.ivHi[j]), min(r.ivKey[0], r.ivKey[j])
		}
		i, r.nIv = 0, 1
	}
	if i == r.nIv {
		r.ivLo[i], r.ivHi[i], r.ivKey[i] = start, end, k
		r.nIv++
		return
	}
	r.ivLo[i], r.ivHi[i], r.ivKey[i] = min(r.ivLo[i], start), max(r.ivHi[i], end), min(r.ivKey[i], k)
}

// queueOwner queues the item owning a slot of r, stamping it evicted
// when its slot is being removed under it.
func (b *soaBackend) queueOwner(r *soaRes, owner int64, evicted bool) {
	en := b.en
	if !r.link {
		if evicted {
			b.taskEvict[owner] = en.epoch
		}
		en.queueTask(graph.TaskID(owner))
		return
	}
	e := schedule.MsgOwnerEdge(owner)
	if evicted {
		b.msgEvict[e] = en.epoch
	}
	en.queueMsg(e)
}

// noteMut records the removal of the slot [start, end) keyed k from r
// this epoch, minus the sub-span [covS, covE) that the removing item
// immediately re-covers with its replacement slot (pass covS >= covE
// for none). The covered part stays occupied at every point a checker
// can observe, so only the genuinely freed remainder can open a gap.
// vis is the key of the item performing the removal (vis <= k always);
// owners above it whose slots start after the freed space are queued
// via the per-epoch watermark scan.
func (b *soaBackend) noteMut(r *soaRes, start, end, covS, covE float64, k, vis int64) {
	epoch := b.en.epoch
	if covE <= covS {
		covS, covE = end, end
	}
	if r.divStamp != epoch {
		r.divStamp, r.nIv = epoch, 0
	}
	freedLo := math.Inf(1)
	if e1 := math.Min(end, covS); e1 > start || end == start {
		// A zero-length slot still blocks every fit that straddles it,
		// so its removal frees its point.
		r.addIv(start, math.Max(e1, start), k)
		freedLo = start
	}
	if s2 := math.Max(start, covE); end > s2 && covE > covS {
		r.addIv(s2, end, k)
		freedLo = math.Min(freedLo, s2)
	}
	// A removal can only move the fit of an item whose window reaches the
	// freed space: its slot starts after the freed region, and its key is
	// above the remover's (it could see the slot). A fully re-covered
	// removal frees nothing and affects nobody.
	if math.IsInf(freedLo, 1) {
		return
	}
	hi := math.Inf(1)
	if r.scanStamp == epoch {
		if freedLo >= r.scanLo {
			return
		}
		hi = r.scanLo
	}
	r.scanStamp, r.scanLo = epoch, freedLo
	for i := r.searchStartAtLeast(freedLo - schedule.TimeEps); i < len(r.slots); i++ {
		if r.slots[i].start >= hi-schedule.TimeEps {
			break
		}
		if r.slots[i].key > vis {
			b.queueOwner(r, r.slots[i].owner, false)
		}
	}
}

// clean reports whether r's content changes this epoch provably cannot
// move a fit with visibility vis whose last placement was
// [oldStart, oldEnd): no slot the checker could see was removed from the
// span its earlier candidates were rejected over. Removals of slots keyed
// at or above vis never change the checker's view — those slots were
// invisible to it to begin with — and no per-timeline divergence flag is
// consulted: an epoch of pure insertions leaves every unchanged-input fit
// intact.
//
// A fit of duration dur at candidate c is blocked by a slot [a, b) iff
// b > c+eps and c+dur > a+eps (eps is the fit's overlap tolerance), so a
// removal can only have blocked a candidate in [ready, oldStart) if it
// reaches past ready+eps and starts before oldStart. A zero-length slot
// at oldStart still counts: it blocks every earlier candidate that
// straddles it without overlapping the placement. A fit shorter than
// 2·eps is blocked by slots that end within eps of its candidate, so its
// window also opens that much earlier: a zero-length fit at c is blocked
// by [a, b) with c strictly inside, and no longer by a replacement that
// starts at c.
func (b *soaBackend) clean(r *soaRes, ready, oldStart, oldEnd float64, vis int64) bool {
	if r.divStamp != b.en.epoch {
		return true
	}
	from := ready + math.Min(oldEnd-oldStart, 2*schedule.TimeEps) - schedule.TimeEps
	for i := 0; i < r.nIv; i++ {
		if r.ivKey[i] < vis && r.ivHi[i] >= from && r.ivLo[i] <= oldStart+schedule.TimeEps {
			return false
		}
	}
	return true
}

// insertEvict inserts the slot [start, end) of the item keyed key,
// evicting (and queueing) any invisible slot it overlaps. Visible slots
// cannot overlap — the fit that produced the position avoided them — so
// eviction of one is a bug.
func (b *soaBackend) insertEvict(r *soaRes, start, end float64, owner, key int64) {
	idx := r.searchStartAtLeast(start)
	for idx > 0 && r.slots[idx-1].end > start+schedule.TimeEps {
		idx--
		b.evict(r, idx, start, end, key)
	}
	for idx < r.len() && r.slots[idx].start < end-schedule.TimeEps {
		if r.slots[idx].end <= start+schedule.TimeEps {
			// A zero-length slot at start: the fit passes over it, so it
			// stays, in front of the new slot.
			idx++
			continue
		}
		b.evict(r, idx, start, end, key)
	}
	r.insertAt(r.afterEarlierPoints(idx, start, end, key), start, end, owner, key)
}

// evict removes the invisible slot at i, which the insertion of [start,
// end) by the item keyed vis overlaps, and queues its owner.
func (b *soaBackend) evict(r *soaRes, i int, start, end float64, vis int64) {
	sl := r.slots[i]
	if sl.key <= vis {
		panic(fmt.Sprintf("core: soa backend evicting visible slot (owner %d, key %d, visibility %d)",
			sl.owner, sl.key, vis))
	}
	b.queueOwner(r, sl.owner, true)
	b.noteMut(r, sl.start, sl.end, start, end, sl.key, vis)
	r.removeAt(i)
}
