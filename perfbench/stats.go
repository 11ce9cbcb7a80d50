package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// recorder collects named samples (span durations in ms, sizes, counts)
// for the per-layer report. A nil *recorder is the untraced mode: every
// method is a no-op, so the measured code paths carry no tracing cost
// beyond a nil check.
type recorder struct {
	mu   sync.Mutex
	vals map[string][]float64
}

func newRecorder() *recorder { return &recorder{vals: make(map[string][]float64)} }

func (r *recorder) add(name string, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.vals[name] = append(r.vals[name], v)
	r.mu.Unlock()
}

// since records the milliseconds elapsed since t0 under name.
func (r *recorder) since(name string, t0 time.Time) {
	if r == nil {
		return
	}
	r.add(name, ms(time.Since(t0)))
}

func (r *recorder) get(name string) []float64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]float64(nil), r.vals[name]...)
}

func (r *recorder) sum(name string) float64 {
	s := 0.0
	for _, v := range r.get(name) {
		s += v
	}
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle sample (the mean of the two middle ones for
// an even count), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// tailMinBeyond is how many samples must lie beyond the reported tail
// value: fewer would make the tail a handful of outliers.
const tailMinBeyond = 10

// tail returns the sample at the highest percentile that still has at
// least tailMinBeyond samples above it, together with that percentile.
// With at most tailMinBeyond samples it falls back to the median.
func tail(xs []float64) (value, pct float64) {
	n := len(xs)
	if n <= tailMinBeyond {
		return median(xs), 50
	}
	s := sorted(xs)
	i := n - 1 - tailMinBeyond
	return s[i], 100 * float64(i+1) / float64(n)
}

// ratio returns num/den, or 0 when den is 0 (the layer did no such work).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// fmtVal prints a metric value with enough digits to compare runs.
func fmtVal(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.6g", v)
}
