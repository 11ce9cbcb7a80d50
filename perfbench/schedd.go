package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/sched"
	"repro/sched/graph"
	"repro/sched/service"
	"repro/sched/system"
)

const (
	scheddClients  = 2
	scheddProblems = 64
	batchSize      = 8
	// scheddRound is how many ops each client runs between two runs of
	// the reference computation.
	scheddRound = 40
	// opTimeout bounds one schedd op, so a lost job fails its op instead
	// of hanging the run.
	opTimeout = 60 * time.Second
)

// scheddTopos are the problems' networks, each used by eight problems,
// four pairs of increasing size: in each pair one ships a full system
// document, the other names a server-built topology plus heterogeneity
// spec. They
// are all sparse: cmd/schedload's default network is a ring, and no
// measured traffic says which networks clients send, so the sparse
// families stand in for it (bsa-dense covers the dense case).
var scheddTopos = []topo{
	{kind: "ring", procs: 8}, {kind: "hypercube", procs: 8}, {kind: "ring", procs: 12}, {kind: "mesh", procs: 12, rows: 3},
	{kind: "torus", procs: 12, rows: 3}, {kind: "hypercube", procs: 16}, {kind: "mesh", procs: 16, rows: 4}, {kind: "torus", procs: 16, rows: 4},
}

// scheddProblem is one problem in its wire form and the library problem
// the server must see in it.
type scheddProblem struct {
	name string
	spec spec
	// req carries the graph and system (or topo + het) documents.
	req  service.ScheduleRequest
	prob sched.Problem
	// deltas are the reschedule rotation applied to the seed-1 job, one
	// of each kind.
	deltas    []sched.Delta
	deltaDocs [][]byte
}

// scheddOp is one client op: kind and its problem, seed or delta.
type scheddOp struct {
	kind  string
	prob  int
	seed  int64
	delta int
}

// Op kinds, drawn in the proportions of opKinds per opCycle ops. Sync,
// async and batch keep cmd/schedload's default mix (sync=1, async=8,
// batch=1); reschedule ops, which schedload does not send, are added at
// twice the sync weight, so the problems' deltas run about once each per
// run. No measured traffic stands behind these weights.
var opKinds = []struct {
	kind string
	per  int
}{{"sync", 1}, {"async", 8}, {"batch", 1}, {"reschedule", 2}}

const opCycle = 12

// scheddBench is an in-process schedd with its clients.
type scheddBench struct {
	problems []*scheddProblem
	srv      *service.Server
	hs       *http.Server
	served   chan struct{}
	clients  [scheddClients]*service.Client
	trans    [scheddClients]*http.Transport
	seqs     [scheddClients][]scheddOp
	// baseJobs are the finished seed-1 jobs reschedule ops start from.
	baseJobs []string
	// baseStats are the server's counters for those jobs.
	baseStats []map[string]float64

	// tr is the active recorder of the instrumentation (middleware,
	// store wrapper), nil outside the traced phase.
	tr atomic.Pointer[recorder]
	// handlerMS pairs sync ops with the handler time the middleware saw.
	handlerMS sync.Map
	// refs are library schedules by result key, filled after the phase.
	refs map[resultKey]*reference
	// libBase are the library's seed-1 results, reschedule sources.
	libBase []*sched.Result
}

func setupSchedd(ctx context.Context, cfg config) (bench, error) {
	b := &scheddBench{refs: make(map[resultKey]*reference)}
	if err := b.buildProblems(ctx, cfg); err != nil {
		return nil, err
	}
	if err := b.start(cfg.instrument); err != nil {
		return nil, err
	}
	if err := b.warmUp(ctx); err != nil {
		b.close()
		return nil, err
	}
	// The server keeps every async job for its 15-minute TTL, so the op
	// count, not the clock, bounds the live heap (see README.md). At
	// --seconds 30 each client runs 384 ops, 32 of them batches.
	perClient := opsFor(cfg, 12.8, opCycle)
	for c := range b.seqs {
		kinds := sequence(subSeed(cfg.seed, wSchedd, rSeq, int64(c)), perClient, opCycle)
		for _, k := range kinds {
			var op scheddOp
			for _, ok := range opKinds {
				if k < ok.per {
					op.kind = ok.kind
					break
				}
				k -= ok.per
			}
			b.seqs[c] = append(b.seqs[c], op)
		}
	}
	// Each kind's ops, across both clients, are dealt the problems from one
	// balanced sequence, so every problem is scheduled, batched and
	// rescheduled equally often (at --seconds 30, each batched exactly
	// once): the latency tail is formed by batches of the largest
	// problems, and which problems are batched how often should not vary
	// with the seed by chance.
	for ki, ok := range opKinds {
		var ops []*scheddOp
		for c := range b.seqs {
			for i := range b.seqs[c] {
				if b.seqs[c][i].kind == ok.kind {
					ops = append(ops, &b.seqs[c][i])
				}
			}
		}
		probs := sequence(subSeed(cfg.seed, wSchedd, rSeq, int64(scheddClients), int64(ki)), len(ops), scheddProblems)
		rng := rand.New(rand.NewSource(subSeed(cfg.seed, wSchedd, rSeq, int64(scheddClients)+1, int64(ki))))
		for i, op := range ops {
			op.prob, op.seed = probs[i], int64(1+rng.Intn(batchSize))
			op.delta = rng.Intn(len(b.problems[op.prob].deltas))
		}
	}
	return b, nil
}

// buildProblems generates the problems, encodes their documents, and
// converges the library's seed-1 schedules the reschedule deltas are
// drawn against. Task counts are spread evenly over [100, 200], so the
// total work does not depend on the seed.
func (b *scheddBench) buildProblems(ctx context.Context, cfg config) error {
	for i := 0; i < scheddProblems; i++ {
		tp := scheddTopos[(i/2)%len(scheddTopos)]
		tasks := 100 + i*100/(scheddProblems-1)
		if cfg.tiny {
			tasks = 20 + i
		}
		s := spec{
			name:    fmt.Sprintf("p%d:%s/n%d", i, tp, tasks),
			tasks:   tasks,
			topo:    tp,
			graphSd: subSeed(cfg.seed, wSchedd, rGraph, int64(i)),
			hetSd:   subSeed(cfg.seed, wSchedd, rHet, int64(i)),
			seed:    1,
		}
		inst, err := s.generate()
		if err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
		p := &scheddProblem{name: s.name, spec: s}
		if p.req.Graph, err = inst.prob.Graph.MarshalJSON(); err != nil {
			return err
		}
		// The library problem is decoded from the shipped bytes, exactly
		// as the server decodes it.
		g, err := graph.FromJSON(p.req.Graph)
		if err != nil {
			return err
		}
		sys := inst.prob.System
		if i%2 == 0 {
			if p.req.System, err = sys.MarshalJSON(); err != nil {
				return err
			}
			if sys, err = system.SystemFromJSON(p.req.System); err != nil {
				return err
			}
		} else {
			p.req.Topo = &service.TopoSpecWire{Kind: tp.kind, Procs: tp.procs, Rows: tp.rows}
			p.req.Het = &service.HetSpec{Lo: hetLo, Hi: hetHi, Seed: s.hetSd}
		}
		p.prob = sched.Problem{Graph: g, System: sys}
		base, err := scheduleBSA(ctx, instance{prob: p.prob, seed: 1})
		if err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
		b.libBase = append(b.libBase, base)
		for j, kind := range deltaKinds {
			d, err := makeDelta(kind, base, rand.New(rand.NewSource(subSeed(cfg.seed, wSchedd, rDelta, int64(i), int64(j)))))
			if err != nil {
				return fmt.Errorf("%s: %s delta: %w", s.name, kind, err)
			}
			doc, err := d.MarshalJSON()
			if err != nil {
				return err
			}
			p.deltas = append(p.deltas, d)
			p.deltaDocs = append(p.deltaDocs, doc)
		}
		b.problems = append(b.problems, p)
	}
	return nil
}

// start runs a default-configured server on a loopback listener and
// connects the clients, one keep-alive connection each. instrument adds
// the tracing middleware and store wrapper.
func (b *scheddBench) start(instrument bool) error {
	cfg := service.Config{}
	var h http.Handler
	if instrument {
		cfg.Store = &timedStore{Store: service.NewMemStore(), tr: &b.tr}
	}
	b.srv = service.New(cfg)
	h = b.srv.Handler()
	if instrument {
		h = &tap{next: h, b: b}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	b.hs = &http.Server{Handler: h}
	b.served = make(chan struct{})
	go func() {
		defer close(b.served)
		_ = b.hs.Serve(ln) // returns http.ErrServerClosed once close shuts it down
	}()
	for c := range b.clients {
		b.trans[c] = &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
		var rt http.RoundTripper = b.trans[c]
		if instrument {
			rt = opTagger{next: rt}
		}
		b.clients[c] = service.NewClient("http://"+ln.Addr().String(), &http.Client{Transport: rt})
	}
	return nil
}

func (b *scheddBench) close() {
	if b.hs == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = b.srv.Drain(ctx) // every op has finished; a timeout only delays exit
	_ = b.hs.Shutdown(ctx)
	<-b.served
	for _, t := range b.trans {
		t.CloseIdleConnections()
	}
	b.hs = nil
}

// warmUp submits every problem once at seed 1 and watches it finish:
// those jobs are the reschedule sources, and their results must match
// the library's before the first timed op.
func (b *scheddBench) warmUp(ctx context.Context) error {
	c := b.clients[0]
	for i, p := range b.problems {
		req := p.req
		req.Seed = 1
		v, err := c.Submit(ctx, req)
		if err != nil {
			return fmt.Errorf("warm-up %s: %w", p.name, err)
		}
		final, err := c.Watch(ctx, v.ID, nil)
		if err != nil {
			return fmt.Errorf("warm-up %s: %w", p.name, err)
		}
		if err := jobError(final); err != nil {
			return fmt.Errorf("warm-up %s: %w", p.name, err)
		}
		ref, err := newReference(b.libBase[i])
		if err != nil {
			return fmt.Errorf("warm-up %s: %w", p.name, err)
		}
		if err := checkWire(p.prob, final.Result.Schedule, ref); err != nil {
			return fmt.Errorf("warm-up %s: %w", p.name, err)
		}
		b.refs[syncKey(i, 1)] = ref
		b.baseJobs = append(b.baseJobs, v.ID)
		b.baseStats = append(b.baseStats, final.Result.Stats)
	}
	return nil
}

func jobError(v *service.JobView) error {
	if v.Status != service.JobDone || v.Result == nil {
		if v.Error != nil {
			return fmt.Errorf("job %s %s: %w", v.ID, v.Status, v.Error)
		}
		return fmt.Errorf("job %s ended %s", v.ID, v.Status)
	}
	return nil
}

// resultKey names the library schedule a result must reproduce: a
// problem scheduled at a seed, or its seed-1 schedule rescheduled by one
// of its deltas (delta >= 0).
type resultKey struct {
	prob  int
	seed  int64
	delta int
}

func syncKey(prob int, seed int64) resultKey { return resultKey{prob: prob, seed: seed, delta: -1} }
func deltaKey(prob, delta int) resultKey     { return resultKey{prob: prob, seed: 1, delta: delta} }

func (k resultKey) String() string {
	if k.delta >= 0 {
		return fmt.Sprintf("p%d/d%d", k.prob, k.delta)
	}
	return fmt.Sprintf("p%d/s%d", k.prob, k.seed)
}

// wireResult is one schedule a client received.
type wireResult struct {
	key      resultKey
	op       int
	doc      []byte
	digest   digest
	stats    map[string]float64
	makespan float64
	elapsed  time.Duration
}

// clientRun is one client's record of the phase.
type clientRun struct {
	latencies []float64
	results   []wireResult
	failedOps map[int]error
	// kept marks the result keys whose document is kept.
	kept map[resultKey]bool
}

func (b *scheddBench) phase(ctx context.Context, tr *recorder) (*phase, error) {
	b.tr.Store(tr)
	defer b.tr.Store(nil)
	var m0 map[string]int64
	if tr != nil {
		var err error
		if m0, err = b.clients[0].Metrics(ctx); err != nil {
			return nil, err
		}
	}
	runtime.GC()
	// Two clients and the server's workers keep both CPUs busy, so the
	// reference computation cannot run between ops without becoming load.
	// The clients run their sequences in rounds of scheddRound ops
	// instead; between rounds, with every op finished and the server
	// idle, the reference runs once and the next round's times are scaled
	// by it. A round lasts under a second, well below the minutes over
	// which the host's speed drifts.
	ph := &phase{}
	var refs []float64
	runs := [scheddClients]clientRun{}
	for c := range runs {
		runs[c] = clientRun{failedOps: make(map[int]error), kept: make(map[resultKey]bool)}
	}
	before := memStats().TotalAlloc
	for lo := 0; lo < len(b.seqs[0]); lo += scheddRound {
		rt := ms(ref.measure())
		refs = append(refs, rt)
		start := time.Now()
		var wg sync.WaitGroup
		for c := range runs {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				b.clientLoop(ctx, c, lo, min(lo+scheddRound, len(b.seqs[c])), rt, &runs[c], tr)
			}(c)
		}
		wg.Wait()
		ph.elapsed += scale(time.Since(start), rt)
	}
	ph.allocBytes = memStats().TotalAlloc - before
	ph.refMS = median(refs)
	ph.liveHeap = liveHeap()
	if tr != nil {
		m1, err := b.clients[0].Metrics(ctx)
		if err != nil {
			return nil, err
		}
		for _, k := range []string{"jobs_accepted", "jobs_completed", "jobs_failed", "jobs_rejected"} {
			tr.add("service."+k, float64(m1[k]-m0[k]))
		}
	}

	// The correctness gate runs after the timed phase: every distinct
	// result is decoded and verified once, and every result must be
	// byte-identical to the library's schedule for its problem and seed.
	checked := make(map[resultKey]bool)
	for c := range runs {
		r := &runs[c]
		ph.attempted += len(r.latencies)
		ph.latencies = append(ph.latencies, r.latencies...)
		for _, res := range r.results {
			if _, failed := r.failedOps[res.op]; failed {
				continue
			}
			ref, err := b.reference(ctx, res.key, tr)
			if err == nil && res.doc != nil && !checked[res.key] {
				checked[res.key] = true
				err = checkTraced(tr, res, ref)
			}
			if err == nil {
				err = ref.sameAs(res.digest)
			}
			if err != nil {
				r.failedOps[res.op] = fmt.Errorf("%v: %w", res.key, err)
				continue
			}
			ph.results = append(ph.results, resultRec{op: res.key.String(), digest: res.digest, stats: res.stats, nsl: res.makespan / ref.cpMin})
			tr.add("service.run_ms", ms(res.elapsed))
			traceStats(tr, res.stats)
		}
		for op, err := range r.failedOps {
			ph.fail(fmt.Sprintf("client %d op %d (%s)", c, op, b.seqs[c][op].kind), err)
		}
	}
	return ph, nil
}

// checkTraced runs the wire correctness gate on a result, timing the
// sched layer's checks when traced.
func checkTraced(tr *recorder, res wireResult, ref *reference) error {
	if tr != nil {
		s, err := decodeSchedule(ref.prob, res.doc)
		if err != nil {
			return err
		}
		t0 := time.Now()
		_, err = s.MarshalJSON()
		tr.since("sched.marshal_ms", t0)
		if err != nil {
			return err
		}
		traceResult(tr, &sched.Result{Schedule: s}, res.doc)
	}
	return checkWire(ref.prob, res.doc, ref)
}

// reference returns the library's schedule for a result key, computing
// it on first use.
func (b *scheddBench) reference(ctx context.Context, k resultKey, tr *recorder) (*reference, error) {
	if ref, ok := b.refs[k]; ok {
		return ref, nil
	}
	p := b.problems[k.prob]
	var res *sched.Result
	var err error
	t0 := time.Now()
	if k.delta >= 0 {
		res, err = sched.Reschedule(ctx, *b.libBase[k.prob], p.deltas[k.delta], sched.WithSeed(k.seed))
		tr.since("sched.reschedule_ms", t0)
		t1 := time.Now()
		if _, aerr := p.deltas[k.delta].Apply(p.prob); aerr != nil && err == nil {
			err = aerr
		}
		tr.since("sched.delta_apply_ms", t1)
	} else {
		res, err = scheduleBSA(ctx, instance{prob: p.prob, seed: k.seed})
		tr.since("sched.schedule_ms", t0)
	}
	if err != nil {
		return nil, err
	}
	ref, err := newReference(res)
	if err != nil {
		return nil, err
	}
	b.refs[k] = ref
	return ref, nil
}

// clientLoop runs ops [lo, hi) of client c's sequence closed loop: each
// op waits for its last terminal result before the next is sent. Op
// latencies are scaled by the round's reference time refMS. Only the
// first document per result key is kept for the gate to decode; later
// ones are checked by digest, so the client's records stay out of the
// live heap the phase reports.
func (b *scheddBench) clientLoop(ctx context.Context, c, lo, hi int, refMS float64, run *clientRun, tr *recorder) {
	for i := lo; i < hi; i++ {
		octx, cancel := context.WithTimeout(ctx, opTimeout)
		t0 := time.Now()
		results, err := b.do(octx, c, i, b.seqs[c][i], tr)
		run.latencies = append(run.latencies, ms(scale(time.Since(t0), refMS)))
		cancel()
		if err != nil {
			run.failedOps[i] = err
		}
		for _, res := range results {
			if run.kept[res.key] {
				res.doc = nil
			}
			run.kept[res.key] = true
			run.results = append(run.results, res)
		}
	}
}

// do executes one op and returns the schedules it produced.
func (b *scheddBench) do(ctx context.Context, c, i int, op scheddOp, tr *recorder) ([]wireResult, error) {
	cl := b.clients[c]
	p := b.problems[op.prob]
	switch op.kind {
	case "sync":
		req := p.req
		req.Seed = op.seed
		id := fmt.Sprintf("%d.%d", c, i)
		ctx = context.WithValue(ctx, opKey{}, id)
		t0 := time.Now()
		resp, err := cl.Schedule(ctx, req)
		tr.since("service.schedule.roundtrip_ms", t0)
		if err != nil {
			return nil, err
		}
		if h, ok := b.handlerMS.LoadAndDelete(id); ok && tr != nil {
			tr.add("service.wire_ms", h.(float64)-ms(time.Duration(resp.ElapsedNS)))
		}
		res, err := newWireResult(syncKey(op.prob, op.seed), i, resp)
		return []wireResult{res}, err
	case "async":
		req := p.req
		req.Seed = op.seed
		t0 := time.Now()
		v, err := cl.Submit(ctx, req)
		tr.since("service.submit.roundtrip_ms", t0)
		if err != nil {
			return nil, err
		}
		return b.watch(ctx, cl, i, []string{v.ID}, []resultKey{syncKey(op.prob, op.seed)}, tr)
	case "batch":
		req := service.BatchRequest{Graph: p.req.Graph, System: p.req.System, Topo: p.req.Topo, Het: p.req.Het}
		var keys []resultKey
		for s := int64(1); s <= batchSize; s++ {
			req.Jobs = append(req.Jobs, service.ScheduleRequest{Seed: s})
			keys = append(keys, syncKey(op.prob, s))
		}
		t0 := time.Now()
		resp, err := cl.SubmitBatch(ctx, req)
		tr.since("service.batch.roundtrip_ms", t0)
		if err != nil {
			return nil, err
		}
		var ids []string
		for _, it := range resp.Jobs {
			if it.Error != nil {
				return nil, fmt.Errorf("batch item rejected: %w", it.Error)
			}
			ids = append(ids, it.Job.ID)
		}
		return b.watch(ctx, cl, i, ids, keys, tr)
	case "reschedule":
		req := service.RescheduleRequest{Delta: p.deltaDocs[op.delta], Seed: 1}
		t0 := time.Now()
		v, err := cl.Reschedule(ctx, b.baseJobs[op.prob], req)
		tr.since("service.reschedule.roundtrip_ms", t0)
		if err != nil {
			return nil, err
		}
		return b.watch(ctx, cl, i, []string{v.ID}, []resultKey{deltaKey(op.prob, op.delta)}, tr)
	}
	return nil, fmt.Errorf("unknown op kind %q", op.kind)
}

// watch follows each job's event stream, one after the other on the
// client's connection, until all are terminal.
func (b *scheddBench) watch(ctx context.Context, cl *service.Client, i int, ids []string, keys []resultKey, tr *recorder) ([]wireResult, error) {
	var out []wireResult
	for j, id := range ids {
		t0 := time.Now()
		v, err := cl.Watch(ctx, id, nil)
		tr.since("service.events.roundtrip_ms", t0)
		if err != nil {
			return out, err
		}
		if err := jobError(v); err != nil {
			return out, err
		}
		res, err := newWireResult(keys[j], i, v.Result)
		if err != nil {
			return out, err
		}
		out = append(out, res)
	}
	return out, nil
}

// newWireResult records a received schedule. The service indents
// synchronous responses, so the document is compacted first: the
// comparison with the library's bytes ignores JSON whitespace only.
func newWireResult(key resultKey, op int, r *service.ScheduleResponse) (wireResult, error) {
	var doc bytes.Buffer
	if err := json.Compact(&doc, r.Schedule); err != nil {
		return wireResult{}, fmt.Errorf("%v: schedule document: %w", key, err)
	}
	return wireResult{
		key: key, op: op, doc: doc.Bytes(), digest: digestOf(doc.Bytes()),
		stats: r.Stats, makespan: r.Makespan, elapsed: time.Duration(r.ElapsedNS),
	}, nil
}

// probe times the instance-level layers on the exact documents the
// clients ship, and re-runs each problem sequentially to compare its
// evaluation count with the server's.
func (b *scheddBench) probe(ctx context.Context, tr *recorder) error {
	for i, p := range b.problems {
		t0 := time.Now()
		if _, err := p.spec.generate(); err != nil {
			return err
		}
		tr.since("gen.instance_ms", t0)
		if err := traceDecode(tr, p.req.Graph, p.req.System); err != nil {
			return err
		}
		traceStages(tr, instance{prob: p.prob, seed: 1})
		res, err := scheduleBSA(ctx, instance{prob: p.prob, seed: 1}, sched.WithWorkers(1))
		if err != nil {
			return err
		}
		tr.add(specW1, res.Stats.Get("evaluations"))
		tr.add(specDefault, b.baseStats[i]["evaluations"])
	}
	return nil
}

// ---- instrumentation (traced setup only) ----

// opKey carries a sync op's identity from the op to the transport.
type opKey struct{}

const opHeader = "X-Perfbench-Op"

// opTagger copies the op identity into a request header, so the
// middleware can pair a sync op with its handler time.
type opTagger struct{ next http.RoundTripper }

func (t opTagger) RoundTrip(r *http.Request) (*http.Response, error) {
	if id, ok := r.Context().Value(opKey{}).(string); ok {
		r = r.Clone(r.Context())
		r.Header.Set(opHeader, id)
	}
	return t.next.RoundTrip(r)
}

// tap is the middleware around Server.Handler: per-route handler time
// and request/response sizes.
type tap struct {
	next http.Handler
	b    *scheddBench
}

func routeOf(r *http.Request) string {
	p := r.URL.Path
	switch {
	case r.Method == http.MethodPost && p == "/v1/schedule":
		return "schedule"
	case r.Method == http.MethodPost && p == "/v1/jobs":
		return "submit"
	case r.Method == http.MethodPost && p == "/v1/batch":
		return "batch"
	case r.Method == http.MethodPost && strings.HasSuffix(p, "/reschedule"):
		return "reschedule"
	case r.Method == http.MethodGet && strings.HasSuffix(p, "/events"):
		return "events"
	}
	return ""
}

func (t *tap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	tr := t.b.tr.Load()
	route := routeOf(r)
	if tr == nil || route == "" {
		t.next.ServeHTTP(w, r)
		return
	}
	cw := &countingWriter{ResponseWriter: w}
	t0 := time.Now()
	t.next.ServeHTTP(cw, r)
	d := ms(time.Since(t0))
	tr.add("service."+route+".handler_ms", d)
	if id := r.Header.Get(opHeader); id != "" {
		t.b.handlerMS.Store(id, d)
	}
	if r.ContentLength > 0 {
		tr.add("service.request_kb", float64(r.ContentLength)/1024)
	}
	tr.add("service.response_kb", float64(cw.n)/1024)
}

// countingWriter counts response bytes; it keeps the SSE handler's
// flushes working.
type countingWriter struct {
	http.ResponseWriter
	n int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += n
	return n, err
}

func (w *countingWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (w *countingWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// timedStore times the server's store writes and derives each async
// job's queue wait from the record it finishes: acceptance to terminal
// minus the engine's run time.
type timedStore struct {
	service.Store
	tr *atomic.Pointer[recorder]
}

func (s *timedStore) Put(rec *service.Record) error {
	tr := s.tr.Load()
	t0 := time.Now()
	err := s.Store.Put(rec)
	tr.since("service.store_put_ms", t0)
	return err
}

func (s *timedStore) Finish(rec *service.Record) error {
	tr := s.tr.Load()
	t0 := time.Now()
	err := s.Store.Finish(rec)
	tr.since("service.store_finish_ms", t0)
	if rec.Result != nil {
		tr.add("service.queue_wait_ms", ms(rec.DoneAt.Sub(rec.CreatedAt)-time.Duration(rec.Result.ElapsedNS)))
	}
	return err
}
