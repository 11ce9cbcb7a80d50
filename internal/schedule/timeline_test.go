package schedule

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTimelineEarliestFitEmpty(t *testing.T) {
	var tl Timeline
	if got := tl.EarliestFit(5, 10); got != 5 {
		t.Errorf("EarliestFit=%v, want 5", got)
	}
	if got := tl.EarliestFit(-3, 10); got != 0 {
		t.Errorf("EarliestFit negative ready=%v, want 0", got)
	}
	if tl.End() != 0 || tl.Len() != 0 || tl.BusyTime() != 0 {
		t.Error("empty timeline aggregates wrong")
	}
}

func TestTimelineReserveAndGaps(t *testing.T) {
	var tl Timeline
	if err := tl.Reserve(10, 10, 1); err != nil {
		t.Fatal(err)
	}
	if err := tl.Reserve(30, 10, 2); err != nil {
		t.Fatal(err)
	}
	// Gap [0,10): fits a 10 at 0.
	if got := tl.EarliestFit(0, 10); got != 0 {
		t.Errorf("fit before first=%v, want 0", got)
	}
	// No gap fits a 12 (gaps are [0,10) and [20,30)); it must go at the end.
	if got := tl.EarliestFit(0, 12); got != 40 {
		t.Errorf("12 must go at 40: got %v", got)
	}
	if got := tl.EarliestFit(5, 12); got != 40 {
		t.Errorf("12 with ready=5 must go after everything: got %v, want 40", got)
	}
	if got := tl.EarliestFit(15, 5); got != 20 {
		t.Errorf("5 with ready=15 fits at 20: got %v", got)
	}
	if got := tl.EarliestFit(22, 5); got != 22 {
		t.Errorf("5 at ready=22 fits in gap: got %v", got)
	}
	if got := tl.EarliestFit(50, 1); got != 50 {
		t.Errorf("after all slots: got %v, want 50", got)
	}
	if tl.End() != 40 {
		t.Errorf("End=%v, want 40", tl.End())
	}
	if tl.BusyTime() != 20 {
		t.Errorf("BusyTime=%v, want 20", tl.BusyTime())
	}
}

func TestTimelineZeroDuration(t *testing.T) {
	var tl Timeline
	tl.Reserve(0, 10, 1)
	if got := tl.EarliestFit(5, 0); got != 10 {
		// A zero-duration transfer still cannot start inside a busy slot.
		t.Errorf("zero-duration fit=%v, want 10", got)
	}
	if err := tl.Reserve(10, 0, 2); err != nil {
		t.Errorf("zero-duration reserve at boundary: %v", err)
	}
}

// TestTimelineReserveAfterZeroLengthSlot checks that Reserve and
// ReserveExact agree with the fit about zero-length slots: one at a new
// slot's start is passed over, and the new slot goes after it, as
// ReserveEarliest would put it; one strictly inside the new slot blocks.
func TestTimelineReserveAfterZeroLengthSlot(t *testing.T) {
	var tl Timeline
	if err := tl.Reserve(11, 0, 1); err != nil {
		t.Fatal(err)
	}
	if got := tl.EarliestFit(11, 2); got != 11 {
		t.Fatalf("fit after a zero-length slot at the start = %v, want 11", got)
	}
	if err := tl.ReserveExact(11, 13, 2); err != nil {
		t.Fatalf("ReserveExact at a zero-length slot's instant: %v", err)
	}
	if err := tl.Reserve(11, 0, 3); err != nil {
		t.Fatalf("second zero-length slot at the same instant: %v", err)
	}
	var owners []int64
	for _, s := range tl.Slots() {
		owners = append(owners, s.Owner)
	}
	if len(owners) != 3 || owners[0] != 1 || owners[1] != 3 || owners[2] != 2 {
		t.Fatalf("slot order by owner = %v, want [1 3 2]", owners)
	}
	if err := tl.CheckConsistent(); err != nil {
		t.Fatal(err)
	}
	if err := tl.Reserve(20, 0, 4); err != nil {
		t.Fatal(err)
	}
	if err := tl.Reserve(19, 2, 5); err == nil {
		t.Fatal("a slot straddling a zero-length slot should overlap it")
	}
}

func TestTimelineReserveOverlapErrors(t *testing.T) {
	var tl Timeline
	tl.Reserve(10, 10, 1)
	for _, c := range []struct{ start, dur float64 }{
		{5, 10}, {15, 2}, {19, 5}, {10, 10}, {0, 11},
	} {
		if err := tl.Reserve(c.start, c.dur, 9); err == nil {
			t.Errorf("Reserve(%v,%v) should overlap", c.start, c.dur)
		}
	}
	// Touching boundaries is fine.
	if err := tl.Reserve(0, 10, 2); err != nil {
		t.Errorf("touching before: %v", err)
	}
	if err := tl.Reserve(20, 10, 3); err != nil {
		t.Errorf("touching after: %v", err)
	}
	if err := tl.Reserve(0, -1, 4); err == nil {
		t.Error("negative duration should fail")
	}
	if err := tl.CheckConsistent(); err != nil {
		t.Fatal(err)
	}
}

func TestTimelineRemoveOwner(t *testing.T) {
	var tl Timeline
	tl.Reserve(0, 5, 7)
	tl.Reserve(10, 5, 8)
	tl.Reserve(20, 5, 7)
	if got := tl.RemoveOwner(7); got != 2 {
		t.Errorf("removed %d, want 2", got)
	}
	if tl.Len() != 1 || tl.Slots()[0].Owner != 8 {
		t.Errorf("remaining slots wrong: %+v", tl.Slots())
	}
	if got := tl.RemoveOwner(99); got != 0 {
		t.Errorf("removed %d for absent owner", got)
	}
}

func TestTimelineReserveEarliest(t *testing.T) {
	var tl Timeline
	tl.Reserve(10, 10, 1)
	start := tl.ReserveEarliest(0, 5, 2)
	if start != 0 {
		t.Errorf("start=%v, want 0", start)
	}
	start = tl.ReserveEarliest(0, 6, 3)
	if start != 20 { // gap [5,10) too small for 6
		t.Errorf("start=%v, want 20", start)
	}
	if err := tl.CheckConsistent(); err != nil {
		t.Fatal(err)
	}
}

func TestEarliestFitWithExtra(t *testing.T) {
	var tl Timeline
	tl.Reserve(10, 10, 1)
	extra := []Slot{{Start: 0, End: 5}, {Start: 25, End: 30}}
	if got := tl.EarliestFitWithExtra(0, 5, extra); got != 5 {
		t.Errorf("fit=%v, want 5 (gap between extra and real)", got)
	}
	if got := tl.EarliestFitWithExtra(0, 6, extra); got != 30 {
		t.Errorf("fit=%v, want 30", got)
	}
	if got := tl.EarliestFitWithExtra(0, 5, nil); got != 0 {
		t.Errorf("fit with nil extra=%v, want 0", got)
	}
}

func TestTimelineReset(t *testing.T) {
	var tl Timeline
	tl.Reserve(0, 5, 1)
	tl.Reset()
	if tl.Len() != 0 || tl.End() != 0 {
		t.Error("Reset did not clear")
	}
}

func TestTimelinePropertyRandomOps(t *testing.T) {
	// Random mixes of ReserveEarliest and RemoveOwner keep the timeline
	// consistent, and EarliestFit always returns a feasible minimal start.
	f := func(seed int64, opsRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var tl Timeline
		ops := 5 + int(opsRaw)%60
		for i := 0; i < ops; i++ {
			switch rng.Intn(3) {
			case 0, 1:
				ready := rng.Float64() * 100
				dur := rng.Float64() * 20
				start := tl.EarliestFit(ready, dur)
				if start < ready-1e-9 {
					return false
				}
				// Verify minimality: no feasible earlier start on a grid.
				tl.ReserveEarliest(ready, dur, int64(i))
			case 2:
				tl.RemoveOwner(int64(rng.Intn(ops)))
			}
			if tl.CheckConsistent() != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestEarliestFitMinimality(t *testing.T) {
	// Brute-force cross-check on small integer instances: EarliestFit's
	// result is the smallest integer-grid start that fits.
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		var tl Timeline
		n := rng.Intn(6)
		for i := 0; i < n; i++ {
			tl.ReserveEarliest(float64(rng.Intn(30)), float64(1+rng.Intn(8)), int64(i))
		}
		ready := float64(rng.Intn(30))
		dur := float64(1 + rng.Intn(8))
		got := tl.EarliestFit(ready, dur)
		fits := func(start float64) bool {
			if start < ready {
				return false
			}
			for _, s := range tl.Slots() {
				if start < s.End-1e-9 && s.Start < start+dur-1e-9 {
					return false
				}
			}
			return true
		}
		if !fits(got) {
			t.Fatalf("trial %d: EarliestFit(%v,%v)=%v does not fit in %+v", trial, ready, dur, got, tl.Slots())
		}
		for x := ready; x < got-0.5; x += 0.5 {
			if fits(x) {
				t.Fatalf("trial %d: EarliestFit=%v but %v also fits in %+v", trial, got, x, tl.Slots())
			}
		}
	}
}

func TestTimelineReserveExact(t *testing.T) {
	var tl Timeline
	if err := tl.Reserve(10, 10, 1); err != nil {
		t.Fatal(err)
	}
	// Exact bounds are preserved bitwise, including ends that start+dur
	// arithmetic would not reproduce.
	start, end := 0.1, 0.3
	if err := tl.ReserveExact(start, end, 2); err != nil {
		t.Fatal(err)
	}
	if tl.Slots()[0].Start != start || tl.Slots()[0].End != end {
		t.Fatalf("slot=%+v, want [%v,%v)", tl.Slots()[0], start, end)
	}
	if err := tl.ReserveExact(5, 15, 3); err == nil {
		t.Fatal("overlap with [10,20) must fail")
	}
	if err := tl.ReserveExact(9, 3, 4); err == nil {
		t.Fatal("negative-duration slot must fail")
	}
	if err := tl.CheckConsistent(); err != nil {
		t.Fatal(err)
	}
}

func TestTimelineFilterOwners(t *testing.T) {
	var tl Timeline
	for i := int64(0); i < 6; i++ {
		if err := tl.Reserve(float64(i*10), 5, i); err != nil {
			t.Fatal(err)
		}
	}
	var removed []int64
	n := tl.FilterOwners(func(owner int64) bool { return owner%2 == 0 }, func(owner int64) {
		removed = append(removed, owner)
	})
	if n != 3 || len(removed) != 3 || removed[0] != 1 || removed[1] != 3 || removed[2] != 5 {
		t.Fatalf("removed %v (n=%d), want [1 3 5]", removed, n)
	}
	if tl.Len() != 3 {
		t.Fatalf("kept %d slots, want 3", tl.Len())
	}
	if err := tl.CheckConsistent(); err != nil {
		t.Fatal(err)
	}
	if got := tl.FilterOwners(func(int64) bool { return true }, nil); got != 0 {
		t.Fatalf("keep-all removed %d", got)
	}
}
