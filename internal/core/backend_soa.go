// The structure-of-arrays schedule-state backend.
//
// The reference backend re-derives a migration's dependency cone by
// lazily stripping Timelines (removing every not-yet-reprocessed slot and
// queueing its owner) and then re-inserting placements, most of which come
// back unchanged: profiles on full=16/n=500 show >50% of re-placed items
// land on byte-identical slots, and the strip/restore churn — about 1.8M
// slot removals and 400k verbatim re-reservations per run — dominates
// updateFrom, which is itself 82-90% of BSA runtime.
//
// This backend never strips. Each resource keeps its slots in parallel
// arrays (start/end/owner + a processing-order key), and visibility does
// the work stripping did: while the cone update processes the item with
// key K, a slot is visible to its fit queries iff its key is < K. The
// serial order is fixed for the whole run, so keys are static:
//
//	message hop of edge e: rank(dest)<<20 | In-index
//	task at rank r:        r<<20 | taskKeyTag
//
// exactly the order placeFrom places items in. A full rebuild paused at
// item I's turn holds precisely the slots of items with key < K(I) — the
// cone invariant ("every item whose placement would change is queued;
// unqueued items' slots already equal their rebuild placement") then makes
// the visible subsequence bit-identical to the rebuild-time timeline, so
// fits over it return bit-identical values.
//
// Consequences that kill the reference backend's overheads:
//
//   - No restore path: a queued item is recomputed read-only against the
//     visible slots and compared with its old placement. Unchanged (the
//     majority) means zero mutation — the old slots were never removed.
//   - Early exit: an unchanged item marks nothing dirty and queues no
//     successors, so propagation stops exactly where placements are
//     provably unchanged.
//   - Instead of strip-queueing whole timeline suffixes, a timeline whose
//     content first diverges is scanned once per update and only the
//     owners with key > K are queued (cheap integer compares).
//   - No requeue/restart: every queue source yields keys strictly above
//     the current item's, so within a rank the In()-order pass never runs
//     twice.
//
// Mutations (the minority) remove the item's old slots by owner and
// insert the new ones, evicting any *invisible* physical slot they
// overlap (its owner is queued, like strip-queueing, but per-slot). A
// visible slot can never be evicted: the fit that produced the position
// avoided all visible slots, so an overlap would contradict the fit —
// insertEvict panics if that invariant breaks.

package core

import (
	"fmt"
	"math"

	"repro/internal/schedule"
	"repro/sched/graph"
	"repro/sched/system"
)

// allVisible is the visibility bound for fit queries between updates
// (candidate evaluation): every physical slot is current, so all keys
// pass.
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

func (tl *soaTL) append(start, end float64, owner, key int64) {
	tl.noteInsert(start, end)
	tl.slots = append(tl.slots, soaSlot{start, end, owner, key})
	tl.sufMin = append(tl.sufMin, key)
}

// recomputeSufMin rebuilds the suffix-min array from scratch; rebuild's
// bulk import appends placeholders and fixes them up here in one pass.
func (tl *soaTL) recomputeSufMin() {
	for i := len(tl.sufMin) - 2; i >= 0; i-- {
		if tl.sufMin[i+1] < tl.sufMin[i] {
			tl.sufMin[i] = tl.sufMin[i+1]
		}
	}
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
		if tl.sufMin[i] >= vis {
			// Every remaining slot is invisible: the item fits at start.
			break
		}
		sl := &s[i]
		if sl.key >= vis {
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

// soaBackend binds the SoA slot state to an engine.
type soaBackend struct {
	en    *engine
	procs []soaTL
	links []soaTL

	// Static processing-order keys (the serial order never changes within
	// a run).
	taskKey []int64
	msgKey  []int64

	// The dirty-frontier refinement of the reference backend's
	// per-timeline divergence flags: the time span [mutLo, mutHi) covering
	// every slot REMOVED (explicitly or by eviction) from the resource this
	// epoch. A per-timeline flag alone forces every later item on a
	// diverged timeline through a fit recompute, and profiles show most of
	// those come back unchanged.
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
	// Each resource keeps a short list of disjoint-ish removal intervals
	// (collapsed to one aggregate when it would overflow); a single wide
	// span turns one distant eviction into a blanket recompute for the
	// whole timeline, and profiles show the precision matters.
	// Each interval also carries the removed slot's processing-order key:
	// a checker ignores removals keyed at or above its own visibility —
	// those slots were never part of its view.
	procIvLo, procIvHi         [][]float64
	linkIvLo, linkIvHi         [][]float64
	procIvKey, linkIvKey       [][]int64
	procDivStamp, linkDivStamp []uint32

	// Owner-queueing watermark: the lowest freed point each resource has
	// been suffix-scanned from this epoch. Items are processed in strictly
	// increasing key order and every scan filters on "key above the item
	// scanning", so an earlier scan's filter is a superset of any later
	// removal's needs: re-scanning [watermark, inf) can only re-queue done
	// items. A later removal therefore scans just the extension
	// [freedLo, watermark).
	procScanLo, linkScanLo       []float64
	procScanStamp, linkScanStamp []uint32

	// msgReady is each message's sender-end time as of its last
	// (re)placement or skip-validation. A sender that moved *later* but
	// not past hop 0's start leaves the hops provably unchanged: the new
	// fit window nests inside the old one, the old gap is still the
	// earliest feasible, and later hops chain off hop 0's unchanged end.
	msgReady []float64

	// taskEvict / msgEvict stamp an item whose slot (any hop, for a
	// message) was evicted this epoch. Eviction is the one mutation that
	// invalidates an item's placement without changing its inputs, and
	// the clean checks above cannot see it: the eviction interval carries
	// the evicted item's own key (which its later skip check rightly
	// ignores for gap analysis) and may be fully re-covered by the
	// evictor's insertion. A stamped item must re-place unconditionally.
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
	// slotBuf is finalize's per-timeline materialization scratch.
	slotBuf []schedule.Slot
}

func newSoaBackend(en *engine) *soaBackend {
	if en.inIndex == nil {
		panic("core: soa backend requires the incremental engine")
	}
	nT, nE := en.g.NumTasks(), en.g.NumEdges()
	nP, nL := en.sys.Net.NumProcs(), en.sys.Net.NumLinks()
	b := &soaBackend{
		en:            en,
		procs:         make([]soaTL, nP),
		links:         make([]soaTL, nL),
		taskKey:       make([]int64, nT),
		msgKey:        make([]int64, nE),
		procIvLo:      make([][]float64, nP),
		procIvHi:      make([][]float64, nP),
		linkIvLo:      make([][]float64, nL),
		linkIvHi:      make([][]float64, nL),
		procIvKey:     make([][]int64, nP),
		linkIvKey:     make([][]int64, nL),
		procDivStamp:  make([]uint32, nP),
		linkDivStamp:  make([]uint32, nL),
		procScanLo:    make([]float64, nP),
		linkScanLo:    make([]float64, nL),
		procScanStamp: make([]uint32, nP),
		linkScanStamp: make([]uint32, nL),
		taskEvict:     make([]uint32, nT),
		msgEvict:      make([]uint32, nE),
		taskDrt:       make([]float64, nT),
		msgReady:      make([]float64, nE),
		sc:            newEvalScratch(nL),
	}
	for p := 0; p < nP; p++ {
		b.procIvLo[p] = make([]float64, 0, mutIvCap)
		b.procIvHi[p] = make([]float64, 0, mutIvCap)
		b.procIvKey[p] = make([]int64, 0, mutIvCap)
	}
	for l := 0; l < nL; l++ {
		b.linkIvLo[l] = make([]float64, 0, mutIvCap)
		b.linkIvHi[l] = make([]float64, 0, mutIvCap)
		b.linkIvKey[l] = make([]int64, 0, mutIvCap)
	}
	for t := 0; t < nT; t++ {
		b.taskKey[t] = taskItemKey(en.pos[t])
	}
	for e := 0; e < nE; e++ {
		b.msgKey[e] = msgItemKey(en.msgPos[e], en.inIndex[e])
	}
	return b
}

// rebuild derives the slot state from scratch: the shared placeFrom
// replay fills the Schedule's Timelines (so rebuild stays bit-identical
// to the reference by construction), and the result is imported into the
// parallel arrays. Rebuilds are rare — engine construction and the final
// elitism restore — so the import cost is irrelevant.
func (b *soaBackend) rebuild() {
	en := b.en
	en.s.Reset()
	en.placeFrom(0)
	for t := range b.taskDrt {
		var drt float64
		for _, e := range en.g.In(graph.TaskID(t)) {
			if a := en.s.Msgs[e].Arrival; a > drt {
				drt = a
			}
		}
		b.taskDrt[t] = drt
	}
	for e := range b.msgReady {
		b.msgReady[e] = en.s.Tasks[en.g.Edge(graph.EdgeID(e)).From].End
	}
	for p := range b.procs {
		tl := &b.procs[p]
		tl.reset()
		for _, s := range en.s.ProcTimeline(system.ProcID(p)).Slots() {
			tl.append(s.Start, s.End, s.Owner, b.taskKey[s.Owner])
		}
	}
	for l := range b.links {
		tl := &b.links[l]
		tl.reset()
		for _, s := range en.s.LinkTimeline(system.LinkID(l)).Slots() {
			tl.append(s.Start, s.End, s.Owner, b.msgKey[schedule.MsgOwnerEdge(s.Owner)])
		}
	}
	for p := range b.procs {
		b.procs[p].recomputeSufMin()
	}
	for l := range b.links {
		b.links[l].recomputeSufMin()
	}
}

// finalize materializes the parallel arrays back into the Schedule's
// Timelines. Idempotent; the slot state is authoritative between updates.
func (b *soaBackend) finalize() {
	en := b.en
	for p := range b.procs {
		b.adopt(en.s.ProcTimeline(system.ProcID(p)), &b.procs[p])
	}
	for l := range b.links {
		b.adopt(en.s.LinkTimeline(system.LinkID(l)), &b.links[l])
	}
}

func (b *soaBackend) adopt(dst *schedule.Timeline, tl *soaTL) {
	buf := b.slotBuf[:0]
	for i := range tl.slots {
		sl := &tl.slots[i]
		buf = append(buf, schedule.Slot{Start: sl.start, End: sl.end, Owner: sl.owner})
	}
	b.slotBuf = buf
	dst.AdoptSlots(buf)
}

func (b *soaBackend) procEarliestFit(p system.ProcID, ready, dur float64) float64 {
	return b.procs[p].earliestFit(ready, dur, allVisible)
}

func (b *soaBackend) linkEarliestFitWithExtra(l system.LinkID, ready, dur float64, extra []schedule.Slot) float64 {
	return b.links[l].earliestFitExtra(ready, dur, extra, allVisible)
}

// updateFrom consumes the queued cone in serial-rank order, In() order
// within a rank, like the reference — but with no restart: every queue
// source (divergence scans, evictions, arrival/changed propagation)
// yields keys strictly above the item being processed, so a surfaced
// same-rank sibling always has a larger In-index and is reached by the
// same In() pass.
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
// linkClean windows (a removal that a hop's fit could see). Insertions
// need no test: they evict on overlap, and otherwise only shrink gaps the
// old fits already rejected.
func (b *soaBackend) processMsg(e graph.EdgeID) {
	en := b.en
	vis := b.msgKey[e]
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
		// continued availability is exactly what linkClean certifies.
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
				if !b.linkClean(hop.Link, ready, hop.Start, hop.End, vis) {
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
	from := &en.s.Tasks[edge.From]
	ready := from.End
	b.msgReady[e] = ready
	hops := b.newHops[:0]
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
	} else {
		p := from.Proc
		// Pruned routes are simple paths — no link repeats — so the
		// tentative overlay of the message's own earlier hops can never be
		// consulted and the scratch bookkeeping is skipped entirely; the
		// merge scan only runs for the no-pruning ablation's
		// link-revisiting routes.
		sc := b.sc
		if !en.cfg.pruneRoutes {
			sc.reset()
		}
		for _, l := range en.routes.route(e) {
			lk := en.sys.Net.Link(l)
			if !lk.Has(p) {
				panic(fmt.Sprintf("core: update message %d: route link %d does not touch P%d", e, l, p+1))
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
	}
	b.newHops = hops
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
			// changed hop with a single range shift on its own link;
			// physically identical hops are left untouched.
			for h := range hops {
				old, nh := &sm.Hops[h], &hops[h]
				if *nh == *old {
					continue
				}
				tl := &b.links[nh.Link]
				if i := tl.findOwner(old.Start, schedule.MsgOwner(e, h)); i >= 0 &&
					tl.tryMoveSlot(i, nh.Start, nh.End, schedule.MsgOwner(e, h), vis) {
					b.noteLinkMut(nh.Link, old.Start, old.End, nh.Start, nh.End, vis, vis)
				} else {
					if tl.removeOwner(old.Start, schedule.MsgOwner(e, h)) {
						b.noteLinkMut(nh.Link, old.Start, old.End, nh.Start, nh.End, vis, vis)
					}
					b.insertEvictLink(nh.Link, nh.Start, nh.End, schedule.MsgOwner(e, h), vis)
				}
			}
		} else {
			for h := range sm.Hops {
				hop := &sm.Hops[h]
				if b.links[hop.Link].removeOwner(hop.Start, schedule.MsgOwner(e, h)) {
					// The replacement hop on the same link (same index for a
					// non-migrating message's fixed route) re-covers its
					// span; only the uncovered remainder is genuinely freed.
					covS, covE := hop.End, hop.End
					if h < len(hops) && hops[h].Link == hop.Link {
						covS, covE = hops[h].Start, hops[h].End
					}
					b.noteLinkMut(hop.Link, hop.Start, hop.End, covS, covE, vis, vis)
				}
			}
			for h := range hops {
				hop := &hops[h]
				b.insertEvictLink(hop.Link, hop.Start, hop.End, schedule.MsgOwner(e, h), vis)
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

// processTask handles one queued task: the cheap dirty test finishes
// provably unchanged items outright (their slot is intact), dirty ones are
// recomputed and mutate only on actual divergence.
func (b *soaBackend) processTask(u graph.TaskID) {
	en := b.en
	vis := b.taskKey[u]
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
	if u != en.migTask && b.taskEvict[u] != en.epoch &&
		drt == b.taskDrt[u] && b.procClean(en.assign[u], drt, st.Start, st.End, vis) {
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
		moved := false
		if nw.Proc == st.Proc {
			// Same processor (every non-migrating task): re-place with a
			// single range shift instead of remove+insert when nothing
			// needs evicting.
			tl := &b.procs[st.Proc]
			if i := tl.findOwner(st.Start, schedule.TaskOwner(u)); i >= 0 &&
				tl.tryMoveSlot(i, nw.Start, nw.End, schedule.TaskOwner(u), vis) {
				b.noteProcMut(st.Proc, st.Start, st.End, nw.Start, nw.End, vis, vis)
				moved = true
			}
		}
		if !moved {
			if b.procs[st.Proc].removeOwner(st.Start, schedule.TaskOwner(u)) {
				covS, covE := st.End, st.End
				if nw.Proc == st.Proc {
					covS, covE = nw.Start, nw.End
				}
				b.noteProcMut(st.Proc, st.Start, st.End, covS, covE, vis, vis)
			}
			b.insertEvictProc(p, nw.Start, nw.End, schedule.TaskOwner(u), vis)
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
func addIv(lo, hi []float64, key []int64, start, end float64, k int64) ([]float64, []float64, []int64) {
	for i := range lo {
		if end >= lo[i]-schedule.TimeEps && start <= hi[i]+schedule.TimeEps {
			if start < lo[i] {
				lo[i] = start
			}
			if end > hi[i] {
				hi[i] = end
			}
			if k < key[i] {
				key[i] = k
			}
			return lo, hi, key
		}
	}
	if len(lo) == cap(lo) {
		for i := 1; i < len(lo); i++ {
			if lo[i] < lo[0] {
				lo[0] = lo[i]
			}
			if hi[i] > hi[0] {
				hi[0] = hi[i]
			}
			if key[i] < key[0] {
				key[0] = key[i]
			}
		}
		lo, hi, key = lo[:1], hi[:1], key[:1]
		if start < lo[0] {
			lo[0] = start
		}
		if end > hi[0] {
			hi[0] = end
		}
		if k < key[0] {
			key[0] = k
		}
		return lo, hi, key
	}
	return append(lo, start), append(hi, end), append(key, k)
}

// noteProcMut records the removal of the slot [start, end) keyed k from
// p this epoch, minus the sub-span [covS, covE) that the removing item
// immediately re-covers with its replacement slot (pass covS >= covE
// for none). The covered part stays occupied at every point a checker
// can observe, so only the genuinely freed remainder can open a gap.
// vis is the key of the item performing the removal (vis <= k always);
// owners above it whose slots start after the freed space are queued
// via the per-epoch watermark scan.
func (b *soaBackend) noteProcMut(p system.ProcID, start, end, covS, covE float64, k, vis int64) {
	if covE <= covS {
		covS, covE = end, end
	}
	if b.procDivStamp[p] != b.en.epoch {
		b.procDivStamp[p] = b.en.epoch
		b.procIvLo[p] = b.procIvLo[p][:0]
		b.procIvHi[p] = b.procIvHi[p][:0]
		b.procIvKey[p] = b.procIvKey[p][:0]
	}
	freedLo := math.Inf(1)
	if e1 := math.Min(end, covS); e1 > start || end == start {
		// A zero-length slot still blocks every fit that straddles it,
		// so its removal frees its point.
		b.procIvLo[p], b.procIvHi[p], b.procIvKey[p] =
			addIv(b.procIvLo[p], b.procIvHi[p], b.procIvKey[p], start, math.Max(e1, start), k)
		freedLo = start
	}
	if s2 := math.Max(start, covE); end > s2 && covE > covS {
		b.procIvLo[p], b.procIvHi[p], b.procIvKey[p] =
			addIv(b.procIvLo[p], b.procIvHi[p], b.procIvKey[p], s2, end, k)
		if s2 < freedLo {
			freedLo = s2
		}
	}
	// A removal can only move the fit of an item whose window reaches the
	// freed space: its slot starts after the freed region, and its key is
	// above the remover's (it could see the slot). A fully re-covered
	// removal frees nothing and affects nobody.
	if !math.IsInf(freedLo, 1) {
		hi := math.Inf(1)
		if b.procScanStamp[p] == b.en.epoch {
			if freedLo >= b.procScanLo[p] {
				return
			}
			hi = b.procScanLo[p]
		}
		b.procScanStamp[p] = b.en.epoch
		b.procScanLo[p] = freedLo
		tl := &b.procs[p]
		for i := tl.searchStartAtLeast(freedLo - schedule.TimeEps); i < len(tl.slots); i++ {
			if tl.slots[i].start >= hi-schedule.TimeEps {
				break
			}
			if tl.slots[i].key > vis {
				b.en.queueTask(graph.TaskID(tl.slots[i].owner))
			}
		}
	}
}

// noteLinkMut is noteProcMut for a link timeline.
func (b *soaBackend) noteLinkMut(l system.LinkID, start, end, covS, covE float64, k, vis int64) {
	if covE <= covS {
		covS, covE = end, end
	}
	if b.linkDivStamp[l] != b.en.epoch {
		b.linkDivStamp[l] = b.en.epoch
		b.linkIvLo[l] = b.linkIvLo[l][:0]
		b.linkIvHi[l] = b.linkIvHi[l][:0]
		b.linkIvKey[l] = b.linkIvKey[l][:0]
	}
	freedLo := math.Inf(1)
	if e1 := math.Min(end, covS); e1 > start || end == start {
		b.linkIvLo[l], b.linkIvHi[l], b.linkIvKey[l] =
			addIv(b.linkIvLo[l], b.linkIvHi[l], b.linkIvKey[l], start, math.Max(e1, start), k)
		freedLo = start
	}
	if s2 := math.Max(start, covE); end > s2 && covE > covS {
		b.linkIvLo[l], b.linkIvHi[l], b.linkIvKey[l] =
			addIv(b.linkIvLo[l], b.linkIvHi[l], b.linkIvKey[l], s2, end, k)
		if s2 < freedLo {
			freedLo = s2
		}
	}
	if !math.IsInf(freedLo, 1) {
		hi := math.Inf(1)
		if b.linkScanStamp[l] == b.en.epoch {
			if freedLo >= b.linkScanLo[l] {
				return
			}
			hi = b.linkScanLo[l]
		}
		b.linkScanStamp[l] = b.en.epoch
		b.linkScanLo[l] = freedLo
		tl := &b.links[l]
		for i := tl.searchStartAtLeast(freedLo - schedule.TimeEps); i < len(tl.slots); i++ {
			if tl.slots[i].start >= hi-schedule.TimeEps {
				break
			}
			if tl.slots[i].key > vis {
				b.en.queueMsg(schedule.MsgOwnerEdge(tl.slots[i].owner))
			}
		}
	}
}

// procClean reports whether p's content changes this epoch provably
// cannot move a fit with visibility vis whose last placement was
// [oldStart, oldEnd): no slot the checker could see was removed from the
// span its earlier candidates were rejected over (see ivsClean). Removals
// of slots keyed at or above vis never change the checker's view — those
// slots were invisible to it to begin with — and the per-timeline
// divergence flag is deliberately not consulted: an epoch of pure
// insertions leaves every unchanged-input fit intact.
func (b *soaBackend) procClean(p system.ProcID, ready, oldStart, oldEnd float64, vis int64) bool {
	if b.procDivStamp[p] != b.en.epoch {
		return true
	}
	return ivsClean(b.procIvLo[p], b.procIvHi[p], b.procIvKey[p], ready, oldStart, oldEnd, vis)
}

// linkClean is procClean for a link timeline.
func (b *soaBackend) linkClean(l system.LinkID, ready, oldStart, oldEnd float64, vis int64) bool {
	if b.linkDivStamp[l] != b.en.epoch {
		return true
	}
	return ivsClean(b.linkIvLo[l], b.linkIvHi[l], b.linkIvKey[l], ready, oldStart, oldEnd, vis)
}

// ivsClean is the window test of procClean and linkClean over one
// resource's removal intervals. A fit of duration dur at candidate c is
// blocked by a slot [a, b) iff b > c+eps and c+dur > a+eps (eps is the
// fit's overlap tolerance), so a removal can only have blocked a
// candidate in [ready, oldStart) if it reaches past ready+eps and starts
// before oldStart. A zero-length slot at oldStart still counts: it blocks
// every earlier candidate that straddles it without overlapping the
// placement. A fit shorter than 2·eps is blocked by slots that end
// within eps of its candidate, so its window also opens that much
// earlier: a zero-length fit at c is blocked by [a, b) with c strictly
// inside, and no longer by a replacement that starts at c.
func ivsClean(lo, hi []float64, key []int64, ready, oldStart, oldEnd float64, vis int64) bool {
	from := ready + math.Min(oldEnd-oldStart, 2*schedule.TimeEps) - schedule.TimeEps
	for i := range lo {
		if key[i] < vis && hi[i] >= from && lo[i] <= oldStart+schedule.TimeEps {
			return false
		}
	}
	return true
}

// insertEvictProc inserts a task slot, evicting (and queueing) any
// invisible slot it overlaps. Visible slots cannot overlap — the fit that
// produced the position avoided them — so eviction of one is a bug.
func (b *soaBackend) insertEvictProc(p system.ProcID, start, end float64, owner, vis int64) {
	tl := &b.procs[p]
	idx := tl.searchStartAtLeast(start)
	for idx > 0 && tl.slots[idx-1].end > start+schedule.TimeEps {
		idx--
		sl := tl.slots[idx]
		b.checkEvict(&sl, vis)
		b.taskEvict[sl.owner] = b.en.epoch
		b.en.queueTask(graph.TaskID(sl.owner))
		b.noteProcMut(p, sl.start, sl.end, start, end, sl.key, vis)
		tl.removeAt(idx)
	}
	for idx < tl.len() && tl.slots[idx].start < end-schedule.TimeEps {
		sl := tl.slots[idx]
		if sl.end <= start+schedule.TimeEps {
			// A zero-length slot at start: the fit passes over it, so it
			// stays, in front of the new slot.
			idx++
			continue
		}
		b.checkEvict(&sl, vis)
		b.taskEvict[sl.owner] = b.en.epoch
		b.en.queueTask(graph.TaskID(sl.owner))
		b.noteProcMut(p, sl.start, sl.end, start, end, sl.key, vis)
		tl.removeAt(idx)
	}
	key := b.taskKey[owner]
	tl.insertAt(tl.afterEarlierPoints(idx, start, end, key), start, end, owner, key)
}

// insertEvictLink is insertEvictProc for a message hop.
func (b *soaBackend) insertEvictLink(l system.LinkID, start, end float64, owner, vis int64) {
	tl := &b.links[l]
	idx := tl.searchStartAtLeast(start)
	for idx > 0 && tl.slots[idx-1].end > start+schedule.TimeEps {
		idx--
		sl := tl.slots[idx]
		b.checkEvict(&sl, vis)
		b.msgEvict[schedule.MsgOwnerEdge(sl.owner)] = b.en.epoch
		b.en.queueMsg(schedule.MsgOwnerEdge(sl.owner))
		b.noteLinkMut(l, sl.start, sl.end, start, end, sl.key, vis)
		tl.removeAt(idx)
	}
	for idx < tl.len() && tl.slots[idx].start < end-schedule.TimeEps {
		sl := tl.slots[idx]
		if sl.end <= start+schedule.TimeEps {
			idx++ // a zero-length slot at start, as in insertEvictProc
			continue
		}
		b.checkEvict(&sl, vis)
		b.msgEvict[schedule.MsgOwnerEdge(sl.owner)] = b.en.epoch
		b.en.queueMsg(schedule.MsgOwnerEdge(sl.owner))
		b.noteLinkMut(l, sl.start, sl.end, start, end, sl.key, vis)
		tl.removeAt(idx)
	}
	key := b.msgKey[schedule.MsgOwnerEdge(owner)]
	tl.insertAt(tl.afterEarlierPoints(idx, start, end, key), start, end, owner, key)
}

func (b *soaBackend) checkEvict(sl *soaSlot, vis int64) {
	if sl.key <= vis {
		panic(fmt.Sprintf("core: soa backend evicting visible slot (owner %d, key %d, visibility %d)",
			sl.owner, sl.key, vis))
	}
}
