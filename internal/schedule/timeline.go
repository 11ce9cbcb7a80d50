// Package schedule provides the schedule representation shared by all
// scheduling algorithms in this repository: per-processor and per-link
// timelines of exclusive slots, insertion-based earliest-fit search,
// task/message placement with store-and-forward multi-hop routing, a full
// feasibility validator, ASCII Gantt rendering and summary statistics.
package schedule

import (
	"fmt"
	"math"
)

// Slot is an exclusive reservation [Start, End) on a resource, tagged with
// an opaque owner token (task ID for processors; packed edge/hop for
// links).
type Slot struct {
	Start float64
	End   float64
	Owner int64
}

// Timeline is an ordered set of non-overlapping slots on one resource. The
// zero value is an empty timeline. Fit queries update the timeline's
// rejected-run memo, so a Timeline is not safe for concurrent use, not
// even for concurrent fits; every scheduler owns its Schedule.
type Timeline struct {
	slots []Slot // sorted by Start
	memo  fitMemo
	short int // slots shorter than memoTol at their end time
}

// fitMemo is a rejected-run memo: an earlier fit scan walked the span
// [lo, hi) without finding room, hi being the start it returned, and no
// free interval inside the span is wider than gap. On a packed timeline
// every scan that starts in or walks into a busy run would re-walk it to
// the same exit; a scan for dur > gap+tol whose candidate start lies in
// [lo, hi-tol) instead jumps straight to hi and resumes the ordinary scan
// there, with the same result bit for bit (FuzzTimelineFit checks this
// against a memo-free scan):
//
//   - Such a scan rejects every gap in the span and blocks on every slot
//     there, so from its first block on it walks in step with the
//     recorded scan and leaves the span at exactly hi. tol covers the
//     epsilon-tolerant comparisons (a scan may trail the recorded one by
//     up to timeEps) and float64 rounding at the span's magnitude.
//   - That needs every slot to be at least tol long: a shorter one can be
//     skipped under the epsilon tolerance and let a scan fall out of step
//     just below hi. Inserting a short slot drops the memo, and none is
//     recorded while the timeline holds one.
//   - Insertions otherwise only narrow free intervals, so the memo
//     survives them; removing a slot that overlaps the span (Reset,
//     FilterOwners, RemoveOwner, AdoptSlots) drops it.
//
// Each scan that blocks on at least one slot replaces the memo with its
// own span, which includes the memo's when the scan jumped. The zero
// value is empty.
type fitMemo struct {
	lo, hi, gap, tol float64
}

// memoTol is the margin of a memo ending at hi: a few timeEps for the
// tolerant comparisons, plus a relative term for float64 rounding, which
// takes over once timeEps falls below the resolution of hi.
func memoTol(hi float64) float64 { return 4*timeEps + math.Abs(hi)*0x1p-40 }

// isShort reports whether a slot is too short for the memo's argument.
func isShort(s Slot) bool { return s.End-s.Start < memoTol(s.End) }

// window returns the candidate starts [from, to) from which a scan for dur
// may jump to m.hi; it is empty when some gap in the span may fit dur.
func (m *fitMemo) window(dur float64) (from, to float64) {
	if dur > m.gap+m.tol {
		return m.lo, m.hi - m.tol
	}
	return math.Inf(1), 0
}

// noteInsert accounts for a new slot.
func (tl *Timeline) noteInsert(s Slot) {
	if isShort(s) {
		tl.short++
		tl.memo = fitMemo{}
	}
}

// noteRemove accounts for a removed slot, dropping the memo when the
// interval it frees lies in the span.
func (tl *Timeline) noteRemove(s Slot) {
	if isShort(s) {
		tl.short--
	}
	if s.Start < tl.memo.hi && s.End > tl.memo.lo {
		tl.memo = fitMemo{}
	}
}

// timeEps absorbs floating-point noise when comparing slot boundaries.
const timeEps = 1e-9

// TimeEps is timeEps for callers that replicate the fit arithmetic outside
// this package (the BSA engine's structure-of-arrays backend must produce
// bit-identical fits).
const TimeEps = timeEps

// searchEndAbove returns the index of the first slot whose End exceeds t.
// Hand-rolled binary search: this runs once per placement, fit and strip
// restore, where sort.Search's per-probe closure call is measurable.
func (tl *Timeline) searchEndAbove(t float64) int {
	lo, hi := 0, len(tl.slots)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if tl.slots[mid].End > t {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// searchStartAtLeast returns the index of the first slot whose Start is
// >= t.
func (tl *Timeline) searchStartAtLeast(t float64) int {
	lo, hi := 0, len(tl.slots)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if tl.slots[mid].Start >= t {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// insertIndex returns where a slot starting at start goes: after every
// slot starting earlier and after any zero-length slot at start, which
// the fit scan passes over (it ends by start) and which therefore does not
// overlap the new slot.
func (tl *Timeline) insertIndex(start float64) int {
	idx := tl.searchStartAtLeast(start)
	for idx < len(tl.slots) && tl.slots[idx].End <= start+timeEps {
		idx++
	}
	return idx
}

// insertAt inserts s at index idx, shifting later slots right.
func (tl *Timeline) insertAt(idx int, s Slot) {
	tl.noteInsert(s)
	tl.slots = append(tl.slots, Slot{})
	copy(tl.slots[idx+1:], tl.slots[idx:])
	tl.slots[idx] = s
}

// Len returns the number of reserved slots.
func (tl *Timeline) Len() int { return len(tl.slots) }

// Slots returns the reserved slots in start order. The slice must not be
// modified.
func (tl *Timeline) Slots() []Slot { return tl.slots }

// End returns the finish time of the last slot (0 when empty).
func (tl *Timeline) End() float64 {
	if len(tl.slots) == 0 {
		return 0
	}
	return tl.slots[len(tl.slots)-1].End
}

// clone returns an independent copy of the slots; the memo starts empty.
func (tl *Timeline) clone() Timeline {
	return Timeline{slots: append([]Slot(nil), tl.slots...), short: tl.short}
}

// Reset removes all slots, retaining capacity.
func (tl *Timeline) Reset() {
	tl.slots = tl.slots[:0]
	tl.memo, tl.short = fitMemo{}, 0
}

// EarliestFit returns the earliest start >= ready at which a slot of the
// given duration fits without overlapping existing reservations
// (insertion-based scheduling). A zero duration fits at max(ready, 0).
func (tl *Timeline) EarliestFit(ready, dur float64) float64 {
	if ready < 0 {
		ready = 0
	}
	start, _ := tl.earliestFit(ready, dur)
	return start
}

// earliestFit is EarliestFit plus the insertion index a reservation at the
// returned start would occupy, so ReserveEarliest needs no second search.
func (tl *Timeline) earliestFit(ready, dur float64) (float64, int) {
	start, lo, gap := ready, ready, math.Inf(-1)
	from, to := tl.memo.window(dur)
	if ready >= from && ready < to {
		start, lo, gap, from = tl.memo.hi, tl.memo.lo, tl.memo.gap, math.Inf(1)
	}
	// Slots are non-overlapping and start-sorted, so their end times are
	// monotone: binary-search past everything ending before the candidate
	// start instead of scanning it. Late placements — the common case in
	// suffix rebuilds, whose timelines already hold the whole prefix —
	// skip nearly the entire timeline.
	slots := tl.slots
	i := tl.searchEndAbove(start)
	for ; i < len(slots); i++ {
		s := &slots[i]
		if s.End <= start+timeEps {
			if start != ready {
				// Skipped after a block, which only overlapping slots
				// allow: record nothing.
				lo = math.Inf(1)
			}
			continue // slot entirely before the candidate start
		}
		if start+dur <= s.Start+timeEps {
			break // fits in the gap before this slot
		}
		if g := s.Start - start; g > gap {
			gap = g
		}
		// s.End > start >= ready: the memo-free scan's clamp to ready
		// never fires.
		start = s.End
		if start >= from {
			// Walked into the memo's span: jump across it, once.
			if start < to {
				start, gap = tl.memo.hi, max(gap, tl.memo.gap)
				i = tl.searchEndAbove(start) - 1
			}
			from = math.Inf(1)
		}
	}
	if start > lo && tl.short == 0 {
		tl.memo = fitMemo{lo: lo, hi: start, gap: gap, tol: memoTol(start)}
	}
	return start, i
}

// EarliestFitWithExtra behaves like EarliestFit but also avoids the given
// additional slots (not yet reserved). extra must be sorted by Start and
// non-overlapping with the timeline; BSA uses this to evaluate tentative
// message placements without mutating state.
func (tl *Timeline) EarliestFitWithExtra(ready, dur float64, extra []Slot) float64 {
	if ready < 0 {
		ready = 0
	}
	start := ready
	i := tl.searchEndAbove(ready)
	j := 0
	for i < len(tl.slots) || j < len(extra) {
		var s Slot
		if j >= len(extra) || (i < len(tl.slots) && tl.slots[i].Start <= extra[j].Start) {
			s = tl.slots[i]
			i++
		} else {
			s = extra[j]
			j++
		}
		if s.End <= start+timeEps {
			continue
		}
		if start+dur <= s.Start+timeEps {
			return start
		}
		start = s.End
		if start < ready {
			start = ready
		}
	}
	return start
}

// Reserve inserts the slot [start, start+dur) with the given owner,
// returning an error if it overlaps an existing reservation.
func (tl *Timeline) Reserve(start, dur float64, owner int64) error {
	if dur < 0 {
		return fmt.Errorf("schedule: negative duration %v", dur)
	}
	end := start + dur
	idx := tl.insertIndex(start)
	if idx > 0 && tl.slots[idx-1].End > start+timeEps {
		return fmt.Errorf("schedule: slot [%v,%v) overlaps [%v,%v)", start, end, tl.slots[idx-1].Start, tl.slots[idx-1].End)
	}
	if idx < len(tl.slots) && tl.slots[idx].Start < end-timeEps {
		return fmt.Errorf("schedule: slot [%v,%v) overlaps [%v,%v)", start, end, tl.slots[idx].Start, tl.slots[idx].End)
	}
	tl.insertAt(idx, Slot{Start: start, End: end, Owner: owner})
	return nil
}

// ReserveExact inserts the slot [start, end) with the given owner,
// preserving the exact end bound (Reserve would recompute it as start+dur,
// which need not be bitwise identical under floating point). The
// incremental BSA engine uses it to re-reserve placements that a lazily
// stripped timeline dropped but whose inputs turned out to be unchanged.
func (tl *Timeline) ReserveExact(start, end float64, owner int64) error {
	if end < start {
		return fmt.Errorf("schedule: negative duration slot [%v,%v)", start, end)
	}
	idx := tl.insertIndex(start)
	if idx > 0 && tl.slots[idx-1].End > start+timeEps {
		return fmt.Errorf("schedule: slot [%v,%v) overlaps [%v,%v)", start, end, tl.slots[idx-1].Start, tl.slots[idx-1].End)
	}
	if idx < len(tl.slots) && tl.slots[idx].Start < end-timeEps {
		return fmt.Errorf("schedule: slot [%v,%v) overlaps [%v,%v)", start, end, tl.slots[idx].Start, tl.slots[idx].End)
	}
	tl.insertAt(idx, Slot{Start: start, End: end, Owner: owner})
	return nil
}

// FilterOwners removes every slot whose owner fails keep, calling onRemove
// once per removed slot in start order, and reports how many were removed.
// It rewrites the timeline in a single pass.
func (tl *Timeline) FilterOwners(keep func(owner int64) bool, onRemove func(owner int64)) int {
	out := tl.slots[:0]
	removed := 0
	for _, s := range tl.slots {
		if keep(s.Owner) {
			out = append(out, s)
			continue
		}
		removed++
		tl.noteRemove(s)
		if onRemove != nil {
			onRemove(s.Owner)
		}
	}
	tl.slots = out
	return removed
}

// ReserveEarliest reserves a slot of the given duration at the earliest
// feasible start >= ready and returns that start. The fit search already
// yields the insertion index, so — unlike EarliestFit followed by
// Reserve — no second search or overlap re-check runs.
func (tl *Timeline) ReserveEarliest(ready, dur float64, owner int64) float64 {
	if ready < 0 {
		ready = 0
	}
	if dur < 0 {
		panic(fmt.Sprintf("schedule: negative duration %v", dur))
	}
	start, idx := tl.earliestFit(ready, dur)
	tl.insertAt(idx, Slot{Start: start, End: start + dur, Owner: owner})
	return start
}

// AdoptSlots replaces the timeline's contents with the given slots, which
// must be start-sorted and non-overlapping; the timeline takes ownership
// of the slice. A scheduler that keeps slot state in its own layout uses
// it to materialize a Timeline view for validation and rendering.
func (tl *Timeline) AdoptSlots(slots []Slot) {
	tl.slots = slots
	tl.memo, tl.short = fitMemo{}, 0
	for _, s := range slots {
		if isShort(s) {
			tl.short++
		}
	}
}

// RemoveOwner removes all slots with the given owner and reports how many
// were removed.
func (tl *Timeline) RemoveOwner(owner int64) int {
	out := tl.slots[:0]
	removed := 0
	for _, s := range tl.slots {
		if s.Owner == owner {
			removed++
			tl.noteRemove(s)
			continue
		}
		out = append(out, s)
	}
	tl.slots = out
	return removed
}

// BusyTime returns the total reserved duration.
func (tl *Timeline) BusyTime() float64 {
	var b float64
	for _, s := range tl.slots {
		b += s.End - s.Start
	}
	return b
}

// CheckConsistent verifies internal invariants (ordering, non-overlap,
// non-negative durations); it is used by tests and the validator.
func (tl *Timeline) CheckConsistent() error {
	for i, s := range tl.slots {
		if s.End < s.Start-timeEps {
			return fmt.Errorf("schedule: slot %d has End %v < Start %v", i, s.End, s.Start)
		}
		if i > 0 && tl.slots[i-1].End > s.Start+timeEps {
			return fmt.Errorf("schedule: slots %d and %d overlap", i-1, i)
		}
		if i > 0 && tl.slots[i-1].Start > s.Start {
			return fmt.Errorf("schedule: slots out of order at %d", i)
		}
	}
	return nil
}
