// Command perfbench is the repository's end-to-end and per-layer
// benchmark. It drives three workloads through the public entry points —
// the sched registry's Schedule, and an in-process schedd (service.New)
// over a loopback listener through service.Client, whose results are
// checked against sched's Schedule and Reschedule — and prints one JSON
// object as the last line of its standard output.
//
//	perfbench --workload bsa-dense --seed 1 --seconds 30 --trace 0
//
// Every run executes a fixed, seeded sequence of ops whose length is set
// by --seconds (not a timer), so the same seed always runs the same ops
// and reproduces nsl and the engine's work counts exactly. --trace 0
// prints the end-to-end metrics; --trace 1 prints the per-layer metrics
// of a separate traced phase and the tracing overhead. Any failed
// correctness check makes the run exit non-zero. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	_ "repro/sched/register"
)

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds int
	trace   bool
	// tiny shrinks instances and op counts to test size.
	tiny bool
	// setupReps is how many times setup runs; setup_s is their median.
	setupReps int
	// instrument makes setup install the tracing hooks that sit inside
	// the measured path (schedd's middleware and store wrapper).
	instrument bool
}

// workload is one named set of inputs the benchmark runs.
type workload struct {
	name string
	why  string
	// setup builds the workload's inputs and warm state: everything
	// before the first timed op.
	setup func(ctx context.Context, cfg config) (bench, error)
}

// bench is a workload after setup.
type bench interface {
	// phase runs the workload's fixed op sequence. tr is nil for the
	// untraced phase that produces the end-to-end metrics.
	phase(ctx context.Context, tr *recorder) (*phase, error)
	// probe records the traced run's per-instance layer measurements:
	// calls into each layer's exported functions on the phase's inputs.
	probe(ctx context.Context, tr *recorder) error
	close()
}

var workloads = []workload{
	{
		name:  "bsa-dense",
		why:   "cold BSA, n=500 on fully connected 16-processor systems: the documented hot spot, where the SoA backend, the candidate cache and parallel row prefetch do their work",
		setup: setupDense,
	},
	{
		name:  "bsa-sparse",
		why:   "cold BSA, n=500 on ring-16, hypercube-16 and mesh-4x4: the reference backend and long message routes, with few candidate evaluations per op",
		setup: setupSparse,
	},
	{
		name:  "schedd-mixed",
		why:   "two closed-loop clients on an in-process schedd: sync, async, batch and reschedule ops put decode, queueing, the store, encoding and HTTP on the path",
		setup: setupSchedd,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// phase is what one timed phase measured.
type phase struct {
	// latencies are the per-op times in ms at the reference speed (see
	// speed.go): CPU time per call for the library workloads, wall-clock
	// latency as a client sees it for schedd.
	latencies []float64
	// elapsed is the timed phase's duration at the reference speed: the
	// summed op times for the single-caller library workloads, the wall
	// time for schedd.
	elapsed time.Duration
	// refMS is the reference computation's median time during the phase.
	refMS      float64
	allocBytes uint64
	liveHeap   uint64
	attempted  int
	failed     int
	errs       []string
	// results are the checked results in op order: the run's fingerprint.
	results []resultRec
}

// resultRec is one checked result.
type resultRec struct {
	op     string
	digest digest
	stats  map[string]float64
	nsl    float64
}

func (ph *phase) fail(op string, err error) {
	ph.failed++
	if len(ph.errs) < 5 {
		ph.errs = append(ph.errs, fmt.Sprintf("%s: %v", op, err))
	}
}

// memStats reads the runtime's memory counters.
func memStats() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

// liveHeap forces a collection and returns the bytes still in use.
func liveHeap() uint64 {
	runtime.GC()
	return memStats().HeapAlloc
}

// endToEnd derives the end-to-end metrics of an untraced phase.
func endToEnd(ph *phase, setupS float64) (map[string]float64, []string) {
	tailV, pct := tail(ph.latencies)
	var nsls []float64
	for _, r := range ph.results {
		nsls = append(nsls, r.nsl)
	}
	ok := ph.attempted - ph.failed
	m := map[string]float64{
		"op_p50_ms":       median(ph.latencies),
		"op_tail_ms":      tailV,
		"ops_per_s":       float64(ok) / ph.elapsed.Seconds(),
		"nsl":             mean(nsls),
		"setup_s":         setupS,
		"alloc_mb_per_op": float64(ph.allocBytes) / 1e6 / float64(ph.attempted),
		"live_heap_mb":    float64(ph.liveHeap) / 1e6,
		"ok_share":        float64(ok) / float64(ph.attempted),
	}
	notes := []string{
		fmt.Sprintf("op_tail_ms is p%.1f of %d op times", pct, len(ph.latencies)),
		fmt.Sprintf("nsl is the mean over %d results", len(nsls)),
		fmt.Sprintf("times are at the reference speed: the reference computation took %.3f ms (median) against %.0f ms nominal", ph.refMS, ms(refNominal)),
	}
	return m, notes
}

// e2eMetrics lists the end-to-end metrics in report order.
var e2eMetrics = []struct{ name, unit string }{
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"nsl", "ratio"},
	{"setup_s", "s"},
	{"alloc_mb_per_op", "MB"},
	{"live_heap_mb", "MB"},
	{"ok_share", "share"},
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// outcome is one invocation's result.
type outcome struct {
	res   resultOut
	lines []string
	// untraced is the end-to-end phase (also run in traced mode, for the
	// overhead share); it carries the fingerprint the tests compare.
	untraced *phase
}

// timedSetup runs setup cfg.setupReps times from a collected heap and
// returns the median CPU time it took, at the nominal speed of the
// reference computation run around each rep, and the last rep's bench.
func timedSetup(ctx context.Context, cfg config, w workload) (float64, bench, error) {
	var times []float64
	var b bench
	for i := 0; i < max(1, cfg.setupReps); i++ {
		if b != nil {
			b.close()
		}
		runtime.GC()
		refs := measureRefs(refBracket)
		c0 := cpuTime()
		nb, err := w.setup(ctx, cfg)
		if err != nil {
			return 0, nil, fmt.Errorf("setup: %w", err)
		}
		cost := cpuTime() - c0
		refs = append(refs, measureRefs(refBracket)...)
		times = append(times, scale(cost, median(refs)).Seconds())
		b = nb
	}
	return median(times), b, nil
}

// run executes one workload invocation.
func run(ctx context.Context, w workload, cfg config) (*outcome, error) {
	scfg := cfg
	if cfg.trace {
		scfg.setupReps = 1 // setup_s is an end-to-end metric
	}
	setupS, b, err := timedSetup(ctx, scfg, w)
	if err != nil {
		return nil, err
	}
	ph, err := b.phase(ctx, nil)
	b.close()
	if err != nil {
		return nil, err
	}
	out := &outcome{untraced: ph}
	e2e, notes := endToEnd(ph, setupS)
	out.lines = append(out.lines, notes...)
	if !cfg.trace {
		out.res = resultOut{Correct: ph.failed == 0, Attempted: ph.attempted, Failed: ph.failed, Metrics: map[string]metricOut{}}
		for _, m := range e2eMetrics {
			out.res.Metrics[m.name] = metricOut{Value: e2e[m.name], Unit: m.unit}
			out.lines = append(out.lines, fmt.Sprintf("%-16s %14s %s", m.name, fmtVal(e2e[m.name]), m.unit))
		}
		out.lines = append(out.lines, ph.errs...)
		return out, nil
	}

	// The traced phase runs on a fresh setup so it starts from the same
	// state as the untraced one; the difference of their medians is the
	// tracing overhead.
	tcfg := cfg
	tcfg.instrument = true
	tb, err := w.setup(ctx, tcfg)
	if err != nil {
		return nil, fmt.Errorf("traced setup: %w", err)
	}
	defer tb.close()
	tr := newRecorder()
	tph, err := tb.phase(ctx, tr)
	if err != nil {
		return nil, err
	}
	if err := tb.probe(ctx, tr); err != nil {
		tph.fail("probe", err)
	}
	layer := perLayer(tr, tph)
	layer["trace.overhead_share"] = median(tph.latencies)/median(ph.latencies) - 1
	failed := ph.failed + tph.failed
	out.res = resultOut{Correct: failed == 0, Attempted: ph.attempted + tph.attempted, Failed: failed, Metrics: map[string]metricOut{}}
	for _, m := range layerCatalog {
		out.res.Metrics[m.name] = metricOut{Value: layer[m.name], Unit: m.unit}
		calls := len(tr.get(m.name))
		line := fmt.Sprintf("%-34s %14s %-6s", m.name, fmtVal(layer[m.name]), m.unit)
		switch {
		case m.agg == aggDerived:
		case calls == 0:
			line += " (n/a on this workload)"
		default:
			line += fmt.Sprintf(" (%d calls)", calls)
		}
		out.lines = append(out.lines, line)
	}
	out.lines = append(out.lines, ph.errs...)
	out.lines = append(out.lines, tph.errs...)
	return out, nil
}

func main() {
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "workload seed; every instance and op sequence derives from it")
	seconds := flag.Int("seconds", 30, "run length: sizes the fixed op count (ops per second calibrated on a 2-core machine)")
	trace := flag.Int("trace", 0, "1 runs the traced phase and prints the per-layer metrics")
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, setupReps: 5}

	fmt.Printf("perfbench workload=%s seed=%d seconds=%d trace=%d\n", w.name, cfg.seed, cfg.seconds, *trace)
	fmt.Printf("env GOMAXPROCS=%d nproc=%d go=%s %s/%s\n", runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	// Bounded well below the 180 s a run may take, so a hung op fails the
	// run instead of stalling it.
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	out, err := run(ctx, w, cfg)
	cancel()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	for _, l := range out.lines {
		fmt.Println(l)
	}
	data, err := json.Marshal(out.res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(data))
	if !out.res.Correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	sort.Strings(names)
	return names
}
