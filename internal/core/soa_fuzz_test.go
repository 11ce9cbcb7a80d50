package core

import (
	"math"
	"testing"

	"repro/internal/schedule"
)

// refSoaFit is the memo-free SoA fit scan: soaTL.earliestFit as it was
// before the rejected-run memo, run read-only over tl's slot state. It is
// the reference every memoized SoA fit must reproduce bit for bit.
func refSoaFit(tl *soaTL, ready, dur float64, vis int64) float64 {
	if ready < 0 {
		ready = 0
	}
	s := tl.slots
	if len(s) == 0 || s[len(s)-1].end <= ready {
		return ready
	}
	start := ready
	for i := tl.searchEndAbove(ready); i < len(s); i++ {
		if tl.sufMin[i] >= vis {
			return start
		}
		sl := &s[i]
		if sl.key >= vis {
			continue
		}
		if sl.end <= start+schedule.TimeEps {
			continue
		}
		if start+dur <= sl.start+schedule.TimeEps {
			return start
		}
		start = sl.end
		if start < ready {
			start = ready
		}
	}
	return start
}

// soaFuzzScales mirror the schedule package's fit fuzzing: unit-scale
// times, where timeEps-sized offsets make slots touch and overlap within
// the tolerance, up to 1e12, where only the rounding margin matters.
var soaFuzzScales = [...]float64{1, 1e3, 1e6, 1e12}

// FuzzSoaFit is FuzzTimelineFit for the SoA layout: random-keyed slots
// inserted (evicting what they overlap, as insertEvict does), removed,
// moved with tryMoveSlot and reset, and fits at visibility bounds that
// rise within an "update" and restart lower when a new one begins, as
// cone updates do, plus all-visible fits between them. Every fit must
// equal refSoaFit.
//
//	go test ./internal/core -run '^$' -fuzz '^FuzzSoaFit$' -fuzztime 10m
func FuzzSoaFit(f *testing.F) {
	f.Add([]byte{0, 0, 10, 0, 4, 0, 0, 11, 0, 4, 0, 0, 12, 0, 4, 3, 0, 3, 9, 3, 10, 2, 5})
	f.Add([]byte{1, 0, 5, 2, 9, 0, 6, 2, 9, 0, 7, 2, 9, 4, 3, 3, 0, 2, 9, 1, 3, 3, 40, 6, 7, 3, 1})
	f.Add([]byte{2, 0, 1, 4, 8, 0, 2, 6, 8, 0, 3, 8, 8, 2, 1, 3, 5, 3, 4, 8, 5, 1, 3, 0, 8, 6})
	f.Add([]byte{3, 0, 9, 1, 200, 0, 10, 1, 3, 0, 11, 1, 100, 3, 0, 0, 9, 6, 3, 9, 9, 7, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		scale := soaFuzzScales[int(next())%len(soaFuzzScales)]
		offs := [...]float64{0, 0, 0.5 * scale, schedule.TimeEps / 2, -schedule.TimeEps / 2,
			schedule.TimeEps, 2 * schedule.TimeEps, 5 * schedule.TimeEps}
		time := func() float64 {
			a, b := next(), next()
			t := scale*float64(a%64) + offs[b%8]
			for n := (b >> 3) & 7; n > 0; n-- {
				t = math.Nextafter(t, math.Inf(int(b>>7)*-2+1))
			}
			return t
		}
		dur := func() float64 {
			b := next()
			switch b % 6 {
			case 0:
				return 0
			case 1:
				return schedule.TimeEps * float64(b>>3%8) / 2
			case 2:
				return memoTol(scale*64) * float64(b>>3%4)
			}
			return scale * float64(b>>3) / 2
		}
		var tl soaTL
		vis := int64(0)
		check := func(ready, dur float64, v int64) {
			t.Helper()
			want := refSoaFit(&tl, ready, dur, v)
			if got := tl.earliestFit(ready, dur, v); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("earliestFit(ready=%v, dur=%v, vis=%d) = %v, memo-free scan gives %v\nmemo %+v\nslots %+v",
					ready, dur, v, got, want, tl.memo, tl.slots)
			}
		}
		owner := int64(0)
		for steps := 0; len(data) > 0 && steps < 300; steps++ {
			switch next() % 7 {
			case 0:
				// Insert, evicting every slot it overlaps beyond the
				// tolerance (keys are random, unlike the engine's).
				start := time()
				end := start + dur()
				owner++
				key := int64(next() % 32)
				idx := tl.searchStartAtLeast(start)
				for idx > 0 && tl.slots[idx-1].end > start+schedule.TimeEps {
					idx--
					tl.removeAt(idx)
				}
				for idx < tl.len() && tl.slots[idx].start < end-schedule.TimeEps {
					tl.removeAt(idx)
				}
				tl.insertAt(idx, start, end, owner, key)
			case 1:
				if tl.len() > 0 {
					tl.removeAt(int(next()) % tl.len())
				}
			case 2:
				if tl.len() > 0 {
					i := int(next()) % tl.len()
					start := time()
					sl := tl.slots[i]
					tl.tryMoveSlot(i, start, start+dur(), sl.owner, sl.key)
				}
			case 3:
				// A run of fits at a rising visibility bound from a rising
				// ready time, the shape one cone update produces.
				ready, step := time(), dur()
				for k := 1 + int(next()%8); k > 0; k-- {
					vis += int64(next() % 4)
					check(ready, dur(), vis)
					ready += step
				}
			case 4:
				// A new cone update restarts visibility lower.
				vis = int64(next() % 16)
			case 5:
				ready := time()
				for k := 1 + int(next()%4); k > 0; k-- {
					check(ready, dur(), allVisible)
				}
			case 6:
				tl.reset()
			}
			short := 0
			for i := range tl.slots {
				if isShortSlot(tl.slots[i].start, tl.slots[i].end) {
					short++
				}
				m := tl.slots[i].key
				if i+1 < tl.len() && tl.sufMin[i+1] < m {
					m = tl.sufMin[i+1]
				}
				if tl.sufMin[i] != m {
					t.Fatalf("sufMin[%d] = %d, want %d", i, tl.sufMin[i], m)
				}
			}
			if tl.short != short {
				t.Fatalf("short-slot count %d, want %d", tl.short, short)
			}
		}
	})
}
