package schedule

import (
	"math"
	"testing"
)

// refEarliestFit is the memo-free earliest-fit scan: Timeline's fit loop
// as it was before the rejected-run memo, run over a slot snapshot. It is
// the reference every memoized fit must reproduce bit for bit, start and
// insertion index alike.
func refEarliestFit(slots []Slot, ready, dur float64) (float64, int) {
	lo, hi := 0, len(slots)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if slots[mid].End > ready {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	start := ready
	for i := lo; i < len(slots); i++ {
		s := slots[i]
		if s.End <= start+timeEps {
			continue
		}
		if start+dur <= s.Start+timeEps {
			return start, i
		}
		start = s.End
		if start < ready {
			start = ready
		}
	}
	return start, len(slots)
}

// fitFuzzInput decodes fuzz bytes into times and durations on one scale.
// Times sit on a coarse grid plus offsets of a fraction of timeEps or a
// few ulps, so slots touch, overlap within the tolerance and come out
// zero-length; at the 1e9 and 1e12 scales timeEps is below the float64
// resolution and only the rounding margin protects the memo.
type fitFuzzInput struct {
	data  []byte
	scale float64
}

func (z *fitFuzzInput) next() byte {
	if len(z.data) == 0 {
		return 0
	}
	b := z.data[0]
	z.data = z.data[1:]
	return b
}

var fitFuzzScales = [...]float64{1, 1e-3, 1e3, 1e6, 1e9, 1e12}

// time decodes two bytes into a grid point nudged by an epsilon-scale
// offset and then by up to 7 ulps either way.
func (z *fitFuzzInput) time() float64 {
	a, b := z.next(), z.next()
	offs := [...]float64{0, 0, 0.5, 0.25, timeEps / 2, -timeEps / 2, timeEps, -timeEps,
		2 * timeEps, 4 * timeEps, 5 * timeEps, -3 * timeEps, 1e-12, 0, 0, 0}
	t := z.scale*float64(a%64) + offs[b%16]
	if b%16 == 2 || b%16 == 3 {
		t = z.scale * (float64(a%64) + offs[b%16])
	}
	dir := math.Inf(1)
	if b&0x80 != 0 {
		dir = math.Inf(-1)
	}
	for n := (b >> 4) & 7; n > 0; n-- {
		t = math.Nextafter(t, dir)
	}
	return t
}

// dur decodes one byte into a duration: zero, epsilon-scale, around the
// memo margin, or a multiple of half the scale.
func (z *fitFuzzInput) dur() float64 {
	b := z.next()
	switch b % 8 {
	case 0:
		return 0
	case 1:
		return timeEps * float64(b>>3%8) / 2
	case 2:
		return memoTol(z.scale*64) * float64(b>>3%4)
	}
	return z.scale * float64(b>>3) / 2
}

// FuzzTimelineFit drives one Timeline through a decoded sequence of
// reservations, removals, resets and adoptions and checks every
// EarliestFit and ReserveEarliest result — start and insertion index —
// against refEarliestFit over the current slots. The fit results are the
// only thing the rejected-run memo may influence, and the full-rebuild
// oracle shares it, so schedule identity against the oracle cannot catch
// a memo that skips a fitting gap; this target can.
//
//	go test ./internal/schedule -run '^$' -fuzz '^FuzzTimelineFit$' -fuzztime 10m
func FuzzTimelineFit(f *testing.F) {
	f.Add([]byte{0, 2, 10, 0, 16, 2, 11, 0, 8, 2, 12, 0, 40, 3, 10, 0, 9, 3, 10, 5, 9})
	f.Add([]byte{1, 7, 0, 1, 2, 2, 4, 1, 2, 2, 4, 1, 2, 7, 2, 6, 1, 3, 15, 3, 2, 7, 3, 13, 5, 16})
	f.Add([]byte{2, 7, 3, 20, 2, 5, 9, 0, 41, 7, 4, 7, 3, 9, 7, 5, 7, 2, 7, 3, 30, 2})
	f.Add([]byte{4, 2, 3, 0, 17, 2, 3, 20, 17, 2, 3, 38, 17, 7, 3, 1, 25, 4, 1, 7, 3, 2, 25})
	f.Add([]byte{5, 2, 0, 0, 9, 2, 1, 0, 9, 2, 2, 0, 9, 7, 0, 0, 17, 6, 7, 0, 0, 17})
	f.Add([]byte{3, 2, 1, 1, 8, 2, 2, 2, 1, 2, 2, 3, 9, 5, 3, 7, 1, 2, 17, 8, 7, 1, 0, 18})
	f.Fuzz(func(t *testing.T, data []byte) {
		z := &fitFuzzInput{data: data}
		z.scale = fitFuzzScales[int(z.next())%len(fitFuzzScales)]
		var tl Timeline
		var snap []Slot
		check := func(op string, ready, dur, got float64, gotIdx int) {
			t.Helper()
			r := ready
			if r < 0 {
				r = 0
			}
			want, wantIdx := refEarliestFit(snap, r, dur)
			if math.Float64bits(got) != math.Float64bits(want) || (gotIdx >= 0 && gotIdx != wantIdx) {
				t.Fatalf("%s(ready=%v, dur=%v) = %v at %d, memo-free scan gives %v at %d\nmemo %+v\nslots %+v",
					op, ready, dur, got, gotIdx, want, wantIdx, tl.memo, snap)
			}
		}
		owner := int64(0)
		for steps := 0; len(z.data) > 0 && steps < 400; steps++ {
			switch z.next() % 8 {
			case 0:
				owner++
				_ = tl.Reserve(z.time(), z.dur(), owner)
			case 1:
				owner++
				s := z.time()
				_ = tl.ReserveExact(s, s+z.dur(), owner)
			case 2:
				owner++
				ready, dur := z.time(), z.dur()
				snap = append(snap[:0], tl.Slots()...)
				before := tl.Len()
				got := tl.ReserveEarliest(ready, dur, owner)
				_, idx := refEarliestFit(snap, max(ready, 0), dur)
				check("ReserveEarliest", ready, dur, got, -1)
				if tl.Len() != before+1 || tl.Slots()[idx] != (Slot{Start: got, End: got + dur, Owner: owner}) {
					t.Fatalf("ReserveEarliest(%v, %v) inserted away from index %d: %+v", ready, dur, idx, tl.Slots())
				}
			case 3:
				// A run of fits from a rising ready time, the shape a cone
				// update produces on one timeline.
				ready, step := z.time(), z.dur()
				snap = append(snap[:0], tl.Slots()...)
				for k := 1 + int(z.next()%8); k > 0; k-- {
					dur := z.dur()
					got, idx := tl.earliestFit(max(ready, 0), dur)
					check("earliestFit", ready, dur, got, idx)
					check("EarliestFit", ready, dur, tl.EarliestFit(ready, dur), -1)
					ready += step
				}
			case 4:
				if owner > 0 {
					tl.RemoveOwner(1 + int64(z.next())%owner)
				}
			case 5:
				mod := 2 + int64(z.next()%4)
				tl.FilterOwners(func(o int64) bool { return o%mod != 0 }, nil)
			case 6:
				tl.Reset()
			case 7:
				// Adopt every other slot: a start-sorted subsequence stays
				// as non-overlapping as the timeline it came from.
				var keep []Slot
				for i, s := range tl.Slots() {
					if i%2 == int(z.next()%2) {
						keep = append(keep, s)
					}
				}
				tl.AdoptSlots(keep)
			}
			short := 0
			for _, s := range tl.Slots() {
				if isShort(s) {
					short++
				}
			}
			if tl.short != short {
				t.Fatalf("short-slot count %d, want %d", tl.short, short)
			}
		}
	})
}

// TestTimelineMemoJumps pins the memo's behaviour on a packed run: a scan
// that walks it records the span, later scans for a duration wider than
// every gap that start inside the span or walk into it get the same
// answer as the memo-free scan, and removing a slot inside the span drops
// the memo so the freed gap is found again.
func TestTimelineMemoJumps(t *testing.T) {
	var tl Timeline
	for i := 0; i < 50; i++ {
		// [10i, 10i+9): one-unit gaps.
		if err := tl.Reserve(float64(10*i), 9, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := tl.EarliestFit(100, 5); got != 499 {
		t.Fatalf("EarliestFit(100, 5) = %v, want 499", got)
	}
	if tl.memo.lo != 100 || tl.memo.hi != 499 || tl.memo.gap != 1 {
		t.Fatalf("memo %+v, want span [100, 499) with gap 1", tl.memo)
	}
	// 0 and 3.5 walk into the span after their first block; 250 and 481
	// start in it.
	for _, ready := range []float64{0, 3.5, 250, 481} {
		want, _ := refEarliestFit(tl.Slots(), ready, 2)
		if got := tl.EarliestFit(ready, 2); got != want || got != 499 || tl.memo.hi != 499 {
			t.Fatalf("EarliestFit(%v, 2) = %v, memo-free %v, want 499", ready, got, want)
		}
	}
	// Within timeEps of hi the last slot is skipped under the tolerance:
	// no jump, and the scan fits right at ready.
	if got := tl.EarliestFit(499-1e-9, 2); got != 499-1e-9 {
		t.Fatalf("EarliestFit(499-1e-9, 2) = %v, want 499-1e-9", got)
	}
	tl.RemoveOwner(30)
	if tl.memo != (fitMemo{}) {
		t.Fatalf("removal inside the span kept memo %+v", tl.memo)
	}
	if got := tl.EarliestFit(0, 5); got != 299 {
		t.Fatalf("after freeing [300, 309): EarliestFit(0, 5) = %v, want 299", got)
	}
	// A one-unit duration fits the gaps: no jump, the first gap wins.
	if got := tl.EarliestFit(250, 1); got != 259 {
		t.Fatalf("EarliestFit(250, 1) = %v, want 259", got)
	}
	// A long insertion inside the span keeps the memo; a short one drops it.
	if got := tl.EarliestFit(0, 12); got != 499 {
		t.Fatalf("EarliestFit(0, 12) = %v, want 499", got)
	}
	memo := tl.memo
	if err := tl.Reserve(300, 5, 98); err != nil {
		t.Fatal(err)
	}
	if tl.memo != memo {
		t.Fatalf("long insertion inside the span changed memo %+v to %+v", memo, tl.memo)
	}
	if err := tl.Reserve(309.5, 0, 99); err != nil {
		t.Fatal(err)
	}
	if tl.memo != (fitMemo{}) {
		t.Fatalf("zero-length insertion inside the span kept memo %+v", tl.memo)
	}
}
