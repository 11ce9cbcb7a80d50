// Command schedload load-tests a schedd and publishes the service's
// perf trajectory: sustained jobs/sec and client-observed latency
// percentiles, written as the BENCH_schedd.json document that sits
// beside BENCH_core.json.
//
// Usage:
//
//	schedload [-server URL] [-rps N] [-duration d] [-mix sync=1,async=8,batch=1]
//	          [-batch N] [-conns N] [-compare] [-fail-on-5xx] [-out FILE]
//	          [-graph kind] [-workload FILE] [-n N] [-granularity g]
//	          [-topology kind] [-procs N] [-algo name] [-seed N]
//
// Without -server, schedload starts an in-process schedd on a loopback
// port and drives that — the self-contained mode CI uses. The workload
// is one generated problem (sched/gen families) submitted over and over
// with varying seeds; -workload replays a real imported instance
// (testdata/workloads, .stg or workflow .json) instead of a generated
// graph, so BENCH_schedd.json can be produced from real workloads.
//
// The default mode is an open loop: requests fire on the target-RPS
// schedule regardless of how fast responses come back, so a slow server
// shows up as queueing and latency rather than as a politely slowed
// client. Arrivals beyond the in-flight cap are counted as dropped, not
// silently skipped. The -mix weights spread arrivals across synchronous
// scheduling, asynchronous submits, and batches of -batch jobs.
//
// -compare switches to two closed-loop saturation phases — every job
// submitted one request at a time, then the same jobs in batches — and
// reports the batch amortization as "batch_speedup". The acceptance
// floor for the batch endpoint is 2x: below it, schedload still writes
// the report and then exits non-zero. Jobs/sec is measured server-side
// in both modes: the jobs_completed counter delta over the phase wall
// time, backlog drain included, so acceptance alone cannot inflate it.
//
// Both loops honor the server's queue_full backpressure: a shed job (a
// 503 on /v1/jobs, or a rejected item inside a batch response) pauses
// that worker briefly instead of re-hammering the full queue, and is
// counted under "backpressure" in the report rather than as a 5xx.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/sched/gen"
	"repro/sched/graph"
	_ "repro/sched/register"
	"repro/sched/service"
	"repro/sched/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "schedload:", err)
		os.Exit(1)
	}
}

// report is the BENCH_schedd.json document.
type report struct {
	GOOS      string        `json:"goos"`
	GOARCH    string        `json:"goarch"`
	CPUs      int           `json:"cpus"`
	TargetRPS float64       `json:"target_rps,omitempty"`
	Conns     int           `json:"conns,omitempty"` // closed-loop workers (-compare mode)
	DurationS float64       `json:"duration_s"`
	Problem   problemInfo   `json:"problem"`
	Phases    []phaseResult `json:"phases"`
	// BatchSpeedup is batch jobs/sec over single-submission jobs/sec at
	// equal problem size (-compare mode).
	BatchSpeedup float64 `json:"batch_speedup,omitempty"`
}

type problemInfo struct {
	Graph    string `json:"graph"`
	Tasks    int    `json:"tasks"`
	Edges    int    `json:"edges"`
	Topology string `json:"topology"`
	Procs    int    `json:"procs"`
	Algo     string `json:"algo"`
	Batch    int    `json:"batch"`
}

type phaseResult struct {
	Name     string `json:"name"`
	Requests int64  `json:"requests"`
	Dropped  int64  `json:"dropped,omitempty"`
	// HTTPErrors counts non-2xx responses by class; "transport" counts
	// requests that never got a response.
	HTTPErrors map[string]int64 `json:"http_errors"`
	JobsPerSec float64          `json:"jobs_per_sec"`
	// LatencyMS are client-observed per-request latency percentiles: time
	// to the full response for sync, to acceptance for async and batch.
	LatencyMS map[string]float64 `json:"latency_ms"`
	// LatencyHist is a cumulative histogram: requests with latency <= the
	// bucket bound in milliseconds.
	LatencyHist map[string]int64 `json:"latency_hist_ms"`
}

func run() error {
	server := flag.String("server", "", "schedd base URL (empty starts an in-process schedd)")
	rps := flag.Float64("rps", 200, "open-loop target arrivals per second")
	duration := flag.Duration("duration", 10*time.Second, "send window per phase")
	mixFlag := flag.String("mix", "sync=1,async=8,batch=1", "arrival mix weights (open loop)")
	batchSize := flag.Int("batch", 16, "jobs per batch request")
	conns := flag.Int("conns", 8, "concurrent connections (-compare closed loop)")
	compare := flag.Bool("compare", false, "closed-loop single-vs-batch throughput comparison")
	failOn5xx := flag.Bool("fail-on-5xx", false, "exit nonzero if any 5xx was observed")
	out := flag.String("out", "", "write the report here instead of stdout")
	graphKind := flag.String("graph", "random", "generated graph family (sched/gen kinds)")
	workloadFile := flag.String("workload", "", "replay a workload instance (.stg or workflow .json) instead of generating -graph")
	nTasks := flag.Int("n", 40, "approximate task count")
	granularity := flag.Float64("granularity", 1.0, "mean-exec / mean-comm")
	topoKind := flag.String("topology", "ring", "generated network family")
	procs := flag.Int("procs", 8, "processor count")
	algo := flag.String("algo", "heft", "algorithm per job")
	seed := flag.Int64("seed", 1, "problem generation seed (job i adds i)")
	flag.Parse()

	tk, err := gen.TopoKindByName(*topoKind)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(*seed))
	var g *graph.Graph
	graphLabel := *graphKind
	if *workloadFile != "" {
		g, err = workload.LoadFile(*workloadFile, workload.Options{Granularity: *granularity})
		graphLabel = "workload:" + filepath.Base(*workloadFile)
	} else {
		var kind gen.Kind
		kind, err = gen.KindByName(*graphKind)
		if err != nil {
			return err
		}
		g, err = gen.Generate(gen.Spec{Kind: kind, Size: *nTasks, Granularity: *granularity}, rng)
	}
	if err != nil {
		return err
	}
	nw, err := gen.Topology(gen.TopoSpec{Kind: tk, Procs: *procs}, rng)
	if err != nil {
		return err
	}
	graphDoc, err := g.MarshalJSON()
	if err != nil {
		return err
	}
	topoDoc, err := nw.MarshalJSON()
	if err != nil {
		return err
	}

	base := *server
	var shutdown func() error
	if base == "" {
		base, shutdown, err = startLocal()
		if err != nil {
			return err
		}
		// Closure, not `defer shutdown()`: compare mode swaps in a fresh
		// server (and shutdown func) between phases.
		defer func() {
			if shutdown != nil {
				shutdown() //nolint:errcheck // best-effort teardown
			}
		}()
	}
	client := service.NewClient(base, &http.Client{})
	ctx := context.Background()
	if err := client.Health(ctx); err != nil {
		return fmt.Errorf("server %s not healthy: %w", base, err)
	}

	lg := &loadgen{
		client:    client,
		graphDoc:  graphDoc,
		topoDoc:   topoDoc,
		algo:      *algo,
		seedBase:  *seed,
		batchSize: *batchSize,
	}

	rep := report{
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		CPUs:      runtime.NumCPU(),
		DurationS: duration.Seconds(),
		Problem: problemInfo{
			Graph:    graphLabel,
			Tasks:    g.NumTasks(),
			Edges:    g.NumEdges(),
			Topology: *topoKind,
			Procs:    *procs,
			Algo:     *algo,
			Batch:    *batchSize,
		},
	}

	if *compare {
		rep.Conns = *conns
		single, err := lg.closedLoop(ctx, "single", *conns, *duration, lg.submitOne)
		if err != nil {
			return err
		}
		// Give the batch phase a fresh in-process server: the single phase
		// leaves tens of thousands of finished records live in the store,
		// and the batch phase would pay that heap's GC scan cost for work
		// it did not create. An external -server is measured as-is.
		if shutdown != nil {
			if err := shutdown(); err != nil {
				return err
			}
			base, shutdown, err = startLocal()
			if err != nil {
				return err
			}
			client = service.NewClient(base, &http.Client{})
			lg.client = client
			if err := client.Health(ctx); err != nil {
				return fmt.Errorf("server %s not healthy: %w", base, err)
			}
		}
		batch, err := lg.closedLoop(ctx, "batch", *conns, *duration, lg.submitBatch)
		if err != nil {
			return err
		}
		rep.Phases = []phaseResult{single, batch}
		if single.JobsPerSec > 0 {
			rep.BatchSpeedup = batch.JobsPerSec / single.JobsPerSec
		}
	} else {
		rep.TargetRPS = *rps
		pattern, err := parseMix(*mixFlag)
		if err != nil {
			return err
		}
		phase, err := lg.openLoop(ctx, "mixed", *rps, *duration, pattern)
		if err != nil {
			return err
		}
		rep.Phases = []phaseResult{phase}
	}

	data, err := json.MarshalIndent(&rep, "", " ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if *out != "" {
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			return err
		}
	} else {
		os.Stdout.Write(data)
	}

	if *failOn5xx {
		for _, p := range rep.Phases {
			// queue_full backpressure is orderly load shedding, counted
			// separately; 5xx here means the server actually misbehaved.
			// Per-item batch failures are misconfiguration and fail too.
			if n := p.HTTPErrors["5xx"]; n > 0 {
				return fmt.Errorf("phase %s observed %d 5xx responses", p.Name, n)
			}
			if n := p.HTTPErrors["item_errors"]; n > 0 {
				return fmt.Errorf("phase %s observed %d failed batch items", p.Name, n)
			}
		}
	}
	if *compare {
		return checkBatchFloor(rep.BatchSpeedup)
	}
	return nil
}

// batchSpeedupFloor is the batch endpoint's acceptance floor: batches
// must complete at least twice the jobs/sec of one-at-a-time submission
// of the same jobs.
const batchSpeedupFloor = 2.0

// checkBatchFloor fails a -compare run whose batch_speedup is below
// batchSpeedupFloor.
func checkBatchFloor(speedup float64) error {
	if speedup < batchSpeedupFloor {
		return fmt.Errorf("batch_speedup %.3f is below the batch endpoint's %gx acceptance floor", speedup, batchSpeedupFloor)
	}
	return nil
}

// startLocal boots an in-process schedd on a loopback port.
func startLocal() (string, func() error, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := service.New(service.Config{})
	httpSrv := &http.Server{Handler: srv.Handler()}
	go httpSrv.Serve(ln) //nolint:errcheck // reported through requests failing
	shutdown := func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		httpSrv.Shutdown(ctx) //nolint:errcheck // drain below is the real wait
		return srv.Drain(ctx)
	}
	return "http://" + ln.Addr().String(), shutdown, nil
}

// parseMix expands "sync=1,async=8,batch=1" into an arrival pattern the
// open loop cycles through.
func parseMix(s string) ([]string, error) {
	var pattern []string
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, weightStr, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("bad -mix entry %q (want name=weight)", part)
		}
		var weight int
		if _, err := fmt.Sscanf(weightStr, "%d", &weight); err != nil || weight < 0 {
			return nil, fmt.Errorf("bad -mix weight %q", weightStr)
		}
		switch name {
		case "sync", "async", "batch":
		default:
			return nil, fmt.Errorf("unknown -mix op %q (want sync, async or batch)", name)
		}
		for i := 0; i < weight; i++ {
			pattern = append(pattern, name)
		}
	}
	if len(pattern) == 0 {
		return nil, fmt.Errorf("-mix selects no operations")
	}
	return pattern, nil
}

// loadgen issues the generated problem against one server and collects
// per-request samples.
type loadgen struct {
	client    *service.Client
	graphDoc  []byte
	topoDoc   []byte
	algo      string
	seedBase  int64
	batchSize int

	mu      sync.Mutex
	samples []time.Duration
	errs    map[string]int64
}

func (lg *loadgen) request(i int64) service.ScheduleRequest {
	return service.ScheduleRequest{
		Algo:     lg.algo,
		Graph:    lg.graphDoc,
		Topology: lg.topoDoc,
		Seed:     lg.seedBase + i,
	}
}

func (lg *loadgen) record(elapsed time.Duration, err error) {
	lg.mu.Lock()
	defer lg.mu.Unlock()
	lg.samples = append(lg.samples, elapsed)
	if err == nil {
		return
	}
	if apiErr, ok := err.(*service.APIError); ok {
		lg.errs[fmt.Sprintf("%dxx", apiErr.StatusCode/100)]++
	} else {
		lg.errs["transport"]++
	}
}

func (lg *loadgen) reset() {
	lg.mu.Lock()
	defer lg.mu.Unlock()
	lg.samples = lg.samples[:0]
	lg.errs = make(map[string]int64)
}

// backpressureDelay is how long a worker pauses after the server sheds
// load with queue_full. Hammering a full queue makes the server burn CPU
// accepting-then-rejecting instead of scheduling, which deflates the
// completed-jobs/sec both phases are measured by; a well-behaved client
// backs off and lets the queue drain. The pause runs inside the op, so
// under saturation the latency histogram shows the induced pacing —
// that is the client-experienced truth, not a measurement bug.
const backpressureDelay = 2 * time.Millisecond

// retryAfterCap bounds how much of a server's Retry-After hint a worker
// honors. The hint's integer-seconds resolution is meant for polite
// external clients; a load generator sleeping full seconds per shed job
// would stop generating load, so it takes the hint but caps the pause.
const retryAfterCap = 100 * time.Millisecond

// noteBackpressure counts n shed jobs and pauses the calling worker —
// for the server's Retry-After hint when one arrived (capped), else the
// default delay.
func (lg *loadgen) noteBackpressure(n int64, retryAfter time.Duration) {
	delay := backpressureDelay
	if retryAfter > 0 {
		delay = retryAfter
		if delay > retryAfterCap {
			delay = retryAfterCap
		}
		lg.mu.Lock()
		lg.errs["retry_after_honored"]++
		lg.mu.Unlock()
	}
	lg.mu.Lock()
	lg.errs["backpressure"] += n
	lg.mu.Unlock()
	time.Sleep(delay)
}

func (lg *loadgen) submitOne(ctx context.Context, i int64) error {
	_, err := lg.client.Submit(ctx, lg.request(i))
	if apiErr, ok := err.(*service.APIError); ok && apiErr.Body.Code == service.CodeQueueFull {
		lg.noteBackpressure(1, apiErr.RetryAfter)
		return nil
	}
	return err
}

func (lg *loadgen) submitBatch(ctx context.Context, i int64) error {
	req := service.BatchRequest{Graph: lg.graphDoc, Topology: lg.topoDoc}
	for k := 0; k < lg.batchSize; k++ {
		req.Jobs = append(req.Jobs, service.ScheduleRequest{
			Algo: lg.algo,
			Seed: lg.seedBase + i*int64(lg.batchSize) + int64(k),
		})
	}
	resp, err := lg.client.SubmitBatch(ctx, req)
	if err != nil {
		return err
	}
	// The batch endpoint reports per-item outcomes: a full queue rejects
	// the overflowing items without failing the request. Shed items are
	// backpressure; anything else is a real per-item failure.
	var shed, failed int64
	for _, item := range resp.Jobs {
		switch {
		case item.Error == nil:
		case item.Error.Code == service.CodeQueueFull:
			shed++
		default:
			failed++
		}
	}
	if failed > 0 {
		lg.mu.Lock()
		lg.errs["item_errors"] += failed
		lg.mu.Unlock()
	}
	if shed > 0 {
		// Per-item rejections ride a 2xx envelope, so no Retry-After
		// header reaches the client; use the default pacing delay.
		lg.noteBackpressure(shed, 0)
	}
	return nil
}

func (lg *loadgen) scheduleSync(ctx context.Context, i int64) error {
	_, err := lg.client.Schedule(ctx, lg.request(i))
	return err
}

// openLoop fires arrivals on the target-RPS schedule for the window,
// then waits for the backlog to drain.
func (lg *loadgen) openLoop(ctx context.Context, name string, rps float64, window time.Duration, pattern []string) (phaseResult, error) {
	if rps <= 0 {
		return phaseResult{}, fmt.Errorf("-rps must be positive")
	}
	lg.reset()
	before, err := lg.client.Metrics(ctx)
	if err != nil {
		return phaseResult{}, err
	}
	// The in-flight cap bounds leaked goroutines when the server falls
	// hopelessly behind; arrivals beyond it are dropped and reported.
	sem := make(chan struct{}, 1024)
	var (
		wg       sync.WaitGroup
		requests int64
		dropped  int64
	)
	start := time.Now()
	for i := int64(0); ; i++ {
		at := start.Add(time.Duration(float64(i) / rps * float64(time.Second)))
		if at.Sub(start) >= window {
			break
		}
		time.Sleep(time.Until(at))
		select {
		case sem <- struct{}{}:
		default:
			dropped++
			continue
		}
		requests++
		op := pattern[i%int64(len(pattern))]
		wg.Add(1)
		go func(op string, i int64) {
			defer wg.Done()
			defer func() { <-sem }()
			t0 := time.Now()
			var err error
			switch op {
			case "sync":
				err = lg.scheduleSync(ctx, i)
			case "async":
				err = lg.submitOne(ctx, i)
			case "batch":
				err = lg.submitBatch(ctx, i)
			}
			lg.record(time.Since(t0), err)
		}(op, i)
	}
	wg.Wait()
	if err := lg.drain(ctx); err != nil {
		return phaseResult{}, err
	}
	elapsed := time.Since(start)
	after, err := lg.client.Metrics(ctx)
	if err != nil {
		return phaseResult{}, err
	}
	res := lg.result(name, elapsed, before, after)
	res.Requests = requests
	res.Dropped = dropped
	return res, nil
}

// closedLoop saturates the server with conns workers issuing op
// back-to-back for the window, then waits for the backlog to drain.
func (lg *loadgen) closedLoop(ctx context.Context, name string, conns int, window time.Duration, op func(context.Context, int64) error) (phaseResult, error) {
	if conns < 1 {
		conns = 1
	}
	lg.reset()
	before, err := lg.client.Metrics(ctx)
	if err != nil {
		return phaseResult{}, err
	}
	var (
		wg       sync.WaitGroup
		requests atomic.Int64
	)
	start := time.Now()
	deadline := start.Add(window)
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := requests.Add(1)
				t0 := time.Now()
				err := op(ctx, i)
				lg.record(time.Since(t0), err)
			}
		}()
	}
	wg.Wait()
	if err := lg.drain(ctx); err != nil {
		return phaseResult{}, err
	}
	elapsed := time.Since(start)
	after, err := lg.client.Metrics(ctx)
	if err != nil {
		return phaseResult{}, err
	}
	res := lg.result(name, elapsed, before, after)
	res.Requests = requests.Load()
	return res, nil
}

// drain polls the server until no accepted job is still in flight, so
// jobs/sec reflects completed work, not queue depth.
func (lg *loadgen) drain(ctx context.Context) error {
	deadline := time.Now().Add(2 * time.Minute)
	for {
		m, err := lg.client.Metrics(ctx)
		if err != nil {
			return err
		}
		if m["jobs_in_flight"] == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("backlog failed to drain: %d jobs still in flight", m["jobs_in_flight"])
		}
		time.Sleep(50 * time.Millisecond)
	}
}

var histBounds = []float64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000}

func (lg *loadgen) result(name string, elapsed time.Duration, before, after map[string]int64) phaseResult {
	lg.mu.Lock()
	defer lg.mu.Unlock()
	res := phaseResult{
		Name:        name,
		HTTPErrors:  map[string]int64{"4xx": lg.errs["4xx"], "5xx": lg.errs["5xx"], "transport": lg.errs["transport"]},
		LatencyMS:   make(map[string]float64),
		LatencyHist: make(map[string]int64),
	}
	// Overlay the non-HTTP counters (backpressure sheds, per-item batch
	// failures) so the report shows dropped work instead of hiding it.
	for k, v := range lg.errs {
		res.HTTPErrors[k] = v
	}
	if sec := elapsed.Seconds(); sec > 0 {
		res.JobsPerSec = float64(after["jobs_completed"]-before["jobs_completed"]) / sec
	}
	if len(lg.samples) > 0 {
		sorted := append([]time.Duration(nil), lg.samples...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		pct := func(p float64) float64 {
			idx := int(p * float64(len(sorted)-1))
			return float64(sorted[idx]) / float64(time.Millisecond)
		}
		res.LatencyMS["p50"] = pct(0.50)
		res.LatencyMS["p90"] = pct(0.90)
		res.LatencyMS["p99"] = pct(0.99)
		res.LatencyMS["max"] = float64(sorted[len(sorted)-1]) / float64(time.Millisecond)
		for _, b := range histBounds {
			key := fmt.Sprintf("le_%g", b)
			n := sort.Search(len(sorted), func(i int) bool {
				return float64(sorted[i])/float64(time.Millisecond) > b
			})
			res.LatencyHist[key] = int64(n)
		}
		res.LatencyHist["le_inf"] = int64(len(sorted))
	}
	return res
}
