package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/sched"
)

// Config parameterizes a Server. The zero value is production-usable:
// every field falls back to the documented default.
type Config struct {
	// DefaultAlgo is the algorithm used when a request names none.
	// Default "bsa".
	DefaultAlgo string
	// Workers bounds concurrent scheduling runs. Default GOMAXPROCS.
	Workers int
	// QueueDepth is the shared overflow capacity — together with the
	// per-worker shards it bounds accepted-but-unfinished jobs. Requests
	// beyond it are rejected with 503 "queue_full". Default 512.
	QueueDepth int
	// MaxBodyBytes caps request bodies; larger ones get 413
	// "body_too_large". Default 8 MiB.
	MaxBodyBytes int64
	// JobTTL is how long a finished job stays retrievable through
	// GET /v1/jobs/{id}. Default 15 minutes.
	JobTTL time.Duration
	// Now overrides the clock (TTL tests). Default time.Now.
	Now func() time.Time

	// Store persists accepted asynchronous jobs. Nil means a fresh
	// in-memory store (records live as long as the process); OpenWAL
	// gives restart durability. New replays the store's contents on
	// construction: terminal records stay servable, pending ones are
	// recompiled and re-enqueued.
	Store Store
	// Self is this replica's advertised host:port — the address peers
	// reach it at. Setting it puts the server in cluster mode: job IDs
	// carry its node token ("3aa01f2c.j17") so any replica can route
	// them home. Empty means single-node.
	Self string
	// Peers are the other replicas' advertised host:port addresses.
	// Every replica must be configured with the same total member set
	// (its Self plus its Peers) — membership is configuration, not
	// gossip, so all replicas compute identical hash rings.
	Peers []string
	// HTTPClient issues forwarded requests and peer health probes in
	// cluster mode. Default http.DefaultClient.
	HTTPClient *http.Client

	// Replicas is how many copies of each accepted job's persistence
	// record the tier holds: the owner plus Replicas-1 ring successors.
	// 1 (the default) disables replication and failover entirely —
	// losing a replica loses access to its jobs, exactly the PR-7
	// behavior. Values above the member count are clamped to it.
	Replicas int
	// ProbeInterval is the failure detector's probe period (only
	// running when Replicas > 1). Default 1s.
	ProbeInterval time.Duration
	// ProbeTimeout caps one health probe — the detector's and the ones
	// GET /v1/cluster fans out. Default 1s.
	ProbeTimeout time.Duration
	// ProbeMisses is how many consecutive failed probes declare a peer
	// dead (alive → suspect → dead). Default 3.
	ProbeMisses int
	// BreakerThreshold is how many consecutive forward failures trip a
	// peer's circuit breaker open. Default 5.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker refuses traffic
	// before letting one probe request through. Default 2s.
	BreakerCooldown time.Duration
	// ForwardTimeout bounds one forwarded attempt (job lookups,
	// sub-batches, replication pushes). SSE relays are exempt — they
	// stream for as long as the client watches. Default 10s.
	ForwardTimeout time.Duration
}

func (c *Config) fill() {
	if c.DefaultAlgo == "" {
		c.DefaultAlgo = "bsa"
	}
	if c.Workers < 1 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth < 1 {
		c.QueueDepth = 512
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.JobTTL <= 0 {
		c.JobTTL = 15 * time.Minute
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	if c.Store == nil {
		c.Store = NewMemStore()
	}
	if c.Replicas < 1 {
		c.Replicas = 1
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = time.Second
	}
	if c.ProbeMisses < 1 {
		c.ProbeMisses = 3
	}
	if c.BreakerThreshold < 1 {
		c.BreakerThreshold = 5
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 2 * time.Second
	}
	if c.ForwardTimeout <= 0 {
		c.ForwardTimeout = 10 * time.Second
	}
}

// Validate reports configuration errors New would panic on: peers
// without an advertised self address, or node-token collisions in the
// member set.
func (c *Config) Validate() error {
	if len(c.Peers) > 0 && c.Self == "" {
		return fmt.Errorf("service: peers configured without a self address")
	}
	if c.Self != "" {
		if _, err := newCluster(c.Self, c.Peers, c.HTTPClient); err != nil {
			return err
		}
	}
	return nil
}

// Server is the scheduling service: an http.Handler exposing the wire
// API plus the worker pool, job store and (optionally) replica tier
// behind it. It consumes only the public repro/sched surface —
// algorithms arrive through the registry, so a binary embedding Server
// schedules with whatever it blank-imports or registers itself.
//
//	POST /v1/schedule                synchronous scheduling (body: ScheduleRequest)
//	POST /v1/jobs                    asynchronous submit, 202 + JobView (idempotency keys dedupe)
//	POST /v1/batch                   many submissions in one request, 202 + BatchResponse
//	GET  /v1/jobs/{id}               job status / result
//	GET  /v1/jobs/{id}/events        SSE status stream until terminal
//	POST /v1/jobs/{id}/reschedule    quasi-dynamic delta on a done job, 202 + JobView
//	GET  /v1/algos                   registered algorithms
//	GET  /v1/cluster                 replica membership and health
//	GET  /healthz                    liveness ("ok", or "draining" + 503)
//	GET  /metrics                    expvar counter document
//
// In cluster mode (Config.Self + Config.Peers) job ownership is
// consistent-hashed across replicas: keyed submissions and job lookups
// that land on the wrong replica are forwarded transparently to the
// owner, so clients can talk to any member.
type Server struct {
	cfg      Config
	mux      *http.ServeMux
	pool     *pool
	jobs     *jobTable
	rec      Store
	cluster  *cluster // nil when single-node
	metrics  *metrics
	draining atomic.Bool
	// compiled caches compiled graphs and systems across requests.
	compiled *compileCache

	// detector and replicas implement the fault-tolerant tier; both are
	// nil unless clustered with Replicas > 1. replicas holds record
	// copies streamed by other owners, detector drives failover.
	detector *detector
	replicas *replicaSet

	// keyMu serializes keyed submissions so two concurrent submits under
	// one new idempotency key cannot both miss ByKey and double-accept.
	keyMu sync.Mutex

	janitorStop chan struct{}
	janitorOnce sync.Once
}

// New builds a Server, starts its worker pool and TTL janitor, and
// replays the configured store: terminal records become servable again,
// pending ones are recompiled and re-enqueued (counted in
// store_replays_total). It panics on an invalid Config — call
// Config.Validate first to get the error. Call Drain to shut down.
func New(cfg Config) *Server {
	cfg.fill()
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	prefix := ""
	var cl *cluster
	if cfg.Self != "" {
		cl, _ = newCluster(cfg.Self, cfg.Peers, cfg.HTTPClient) // Validate already vetted it
		cl.breakerThreshold = cfg.BreakerThreshold
		cl.breakerCooldown = cfg.BreakerCooldown
		prefix = cl.selfToken + "."
		if cfg.Replicas > cl.size() {
			cfg.Replicas = cl.size()
		}
	}
	s := &Server{
		cfg:         cfg,
		mux:         http.NewServeMux(),
		jobs:        newJobTable(prefix),
		rec:         cfg.Store,
		cluster:     cl,
		metrics:     newMetrics(),
		compiled:    newCompileCache(compileBudget),
		janitorStop: make(chan struct{}),
	}
	s.pool = newPool(cfg.Workers, cfg.QueueDepth, s.runJob)
	s.mux.HandleFunc("POST /v1/schedule", s.handleSchedule)
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("POST /v1/batch", s.handleBatch)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("POST /v1/jobs/{id}/reschedule", s.handleReschedule)
	s.mux.HandleFunc("GET /v1/algos", s.handleAlgos)
	s.mux.HandleFunc("GET /v1/cluster", s.handleCluster)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("POST /v1/internal/replicate", s.handleReplicate)
	if cl != nil && cfg.Replicas > 1 {
		s.replicas = newReplicaSet()
		s.detector = newDetector(s)
		go s.detector.run()
	}
	s.replay()
	go s.janitor()
	return s
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// ServeHTTP makes Server itself an http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Vars exposes the counter map so an embedding binary can publish it in
// the process-global expvar namespace (cmd/schedd does, as "schedd").
func (s *Server) Vars() *expvar.Map { return s.metrics.vars }

// Jobs returns the number of live runtime jobs (any state).
func (s *Server) Jobs() int { return s.jobs.size() }

// Drain gracefully shuts the service down: the intake closes (new
// submissions get 503 "shutting_down", /healthz turns "draining") and
// Drain blocks until every accepted job has reached a terminal state or
// ctx expires. A completed drain also closes the store — for a WAL
// store that folds the log into its final snapshot. Safe to call more
// than once.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	if s.detector != nil {
		s.detector.close()
	}
	// Stop the janitor on every exit path — an interrupted drain must not
	// leak its goroutine and ticker for the rest of the process.
	defer s.janitorOnce.Do(func() { close(s.janitorStop) })
	s.pool.beginDrain()
	done := make(chan struct{})
	go func() {
		s.pool.wait()
		close(done)
	}()
	select {
	case <-done:
		return s.rec.Close()
	case <-ctx.Done():
		return fmt.Errorf("service: drain interrupted with jobs still running: %w", ctx.Err())
	}
}

// janitor periodically evicts expired terminal jobs from the runtime
// table and the store.
func (s *Server) janitor() {
	period := s.cfg.JobTTL / 4
	if period < time.Second {
		period = time.Second
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			now := s.cfg.Now()
			s.jobs.sweep(now, s.cfg.JobTTL)
			s.rec.Sweep(now, s.cfg.JobTTL)
			if s.replicas != nil {
				s.replicas.sweep(now, s.cfg.JobTTL)
			}
		case <-s.janitorStop:
			return
		}
	}
}

// ---- store replay ----

// replay re-admits the store's contents on boot. Terminal records need
// no runtime state — GET /v1/jobs/{id} and reschedule lineage serve them
// straight from the store. Pending records are jobs a previous process
// accepted but never finished: each is recompiled from its stored recipe
// and re-enqueued under its original ID. Every registered scheduler is
// deterministic, so the replayed run produces byte-identical schedule
// bytes to what the interrupted one would have.
//
// Replayed jobs run without their original TimeoutMS bound — the
// deadline was relative to the original accept time, which no longer
// means anything.
func (s *Server) replay() {
	recs := s.rec.List()
	sort.Slice(recs, func(i, j int) bool { return idSeq(recs[i].ID) < idSeq(recs[j].ID) })
	for _, rec := range recs {
		s.jobs.bump(idSeq(rec.ID))
		if rec.Status.Terminal() {
			continue
		}
		s.metrics.StoreReplays.Add(1)
		j, errBody := s.rebuildJob(rec)
		if errBody == nil {
			// The store already holds this record (that is how we got here),
			// so the rebuilt job must write its terminal transition back —
			// otherwise the record stays "queued" forever: never TTL-swept,
			// re-run on every boot, and served stale once the runtime job
			// expires.
			j.persist = true
			errBody = s.enqueue(j, true)
		}
		if errBody != nil {
			// The recipe no longer compiles (algorithm unregistered in this
			// binary, hand-edited log) or the pool is already full: fail the
			// record so clients see a terminal answer instead of a forever-
			// queued ghost.
			rec := rec.clone()
			rec.Status = JobFailed
			rec.Error = errBody
			rec.DoneAt = s.cfg.Now()
			if err := s.rec.Finish(rec); err != nil {
				s.metrics.StoreErrors.Add(1)
			}
		}
	}
}

// rebuildJob reconstructs a runnable job from a pending record's recipe.
func (s *Server) rebuildJob(rec *Record) (*job, *ErrorBody) {
	switch rec.Kind {
	case KindReschedule:
		delta, err := sched.DeltaFromJSON(rec.Delta)
		if err != nil {
			return nil, &ErrorBody{Code: CodeBadRequest, Message: err.Error(), Detail: validationDetail(err)}
		}
		return s.buildJob(context.Background(), rec.clone(), 0, s.rescheduleRun(rec.SourceID, delta, rec.Seed)), nil
	default:
		req := rec.request()
		p, scheduler, errBody := s.compile(req)
		if errBody != nil {
			return nil, errBody
		}
		seed := req.Seed
		return s.buildJob(context.Background(), rec.clone(), 0, func(ctx context.Context) (*sched.Result, error) {
			return scheduler.Schedule(ctx, p, sched.WithSeed(seed))
		}), nil
	}
}

// resultOf re-derives a finished library result for id: the retained
// in-memory result when the job is live and done, otherwise a
// deterministic recomputation from the stored recipe — recursing through
// reschedule lineage. It never blocks on another queued job (that could
// deadlock a single-worker pool); recomputing an ancestor that happens
// to still be queued yields the same bytes its own run will.
func (s *Server) resultOf(ctx context.Context, id string) (*sched.Result, error) {
	if j, ok := s.jobs.get(id, s.cfg.Now(), s.cfg.JobTTL); ok {
		if res, ok := j.doneResult(); ok {
			return res, nil
		}
	}
	rec, ok := s.rec.Get(id)
	if !ok && s.replicas != nil {
		// A replicated copy of a dead owner's record serves as the recipe
		// just as well — it is byte-identical to what the owner stored.
		rec, ok = s.replicas.get(id)
	}
	if !ok {
		return nil, fmt.Errorf("reschedule source %q is gone (expired or never persisted)", id)
	}
	if rec.Status == JobFailed {
		return nil, fmt.Errorf("reschedule source %q failed", id)
	}
	switch rec.Kind {
	case KindReschedule:
		prev, err := s.resultOf(ctx, rec.SourceID)
		if err != nil {
			return nil, err
		}
		delta, err := sched.DeltaFromJSON(rec.Delta)
		if err != nil {
			return nil, err
		}
		return sched.Reschedule(ctx, *prev, delta, sched.WithSeed(rec.Seed))
	default:
		req := rec.request()
		p, scheduler, errBody := s.compile(req)
		if errBody != nil {
			return nil, errBody
		}
		return scheduler.Schedule(ctx, p, sched.WithSeed(req.Seed))
	}
}

// rescheduleRun returns the run closure of a reschedule job: resolve the
// source result (live fast path or stored-recipe recomputation), then
// warm-start reconvergence from it.
func (s *Server) rescheduleRun(sourceID string, delta sched.Delta, seed int64) func(context.Context) (*sched.Result, error) {
	return func(ctx context.Context) (*sched.Result, error) {
		prev, err := s.resultOf(ctx, sourceID)
		if err != nil {
			return nil, err
		}
		return sched.Reschedule(ctx, *prev, delta, sched.WithSeed(seed))
	}
}

// ---- job construction ----

// newJob compiles a request into a queueable job. base is the request
// context for synchronous calls and the background context for
// asynchronous jobs. persist marks the job store-backed (asynchronous
// submissions); synchronous jobs never are — their IDs are not
// disclosed, so nothing can look them up later.
func (s *Server) newJob(base context.Context, req *ScheduleRequest, persist bool) (*job, *ErrorBody) {
	p, scheduler, errBody := s.compile(req)
	if errBody != nil {
		return nil, errBody
	}
	rec := &Record{
		ID:        s.jobs.nextID(),
		Kind:      KindSchedule,
		Algo:      scheduler.Name(),
		Status:    JobQueued,
		Key:       req.IdempotencyKey,
		CreatedAt: s.cfg.Now(),
	}
	if persist {
		// compile pointed req's documents at the compile cache's copies.
		// The record keeps a copy of req, not req itself: a batch job's
		// request lives in its batch's job array, which must not outlive
		// the batch.
		stored := *req
		rec.Request = &stored
	}
	seed := req.Seed
	j := s.buildJob(base, rec, req.TimeoutMS, func(ctx context.Context) (*sched.Result, error) {
		return scheduler.Schedule(ctx, p, sched.WithSeed(seed))
	})
	j.persist = persist
	return j, nil
}

// newRescheduleJob compiles a reschedule request against a source job
// into a queueable warm-start job. prev is the source's retained result
// when it is live and done — the delta is then parsed and resolved
// against its problem up front, so every validation error still surfaces
// as a typed 4xx before queueing. prev nil means the source exists only
// as a stored record: the preflight Apply is skipped (the recomputation
// happens at run time) and a bad delta becomes the job's terminal error.
func (s *Server) newRescheduleJob(sourceID string, prev *sched.Result, req *RescheduleRequest) (*job, *ErrorBody) {
	if len(req.Delta) == 0 || string(req.Delta) == "null" {
		return nil, &ErrorBody{Code: CodeBadRequest, Message: "missing delta document"}
	}
	delta, err := sched.DeltaFromJSON(req.Delta)
	if err != nil {
		return nil, &ErrorBody{Code: CodeBadRequest, Message: err.Error(), Detail: validationDetail(err)}
	}
	if prev != nil {
		p := sched.Problem{Graph: prev.Schedule.Graph(), System: prev.Schedule.System()}
		if _, err := delta.Apply(p); err != nil {
			return nil, &ErrorBody{Code: CodeBadRequest, Message: err.Error(), Detail: validationDetail(err)}
		}
	}
	s.metrics.observeDelta(delta)
	rec := &Record{
		ID:        s.jobs.nextID(),
		Kind:      KindReschedule,
		Algo:      "bsa",
		Status:    JobQueued,
		Delta:     req.Delta,
		Seed:      req.Seed,
		SourceID:  sourceID,
		CreatedAt: s.cfg.Now(),
	}
	var run func(context.Context) (*sched.Result, error)
	if prev != nil {
		seed := req.Seed
		run = func(ctx context.Context) (*sched.Result, error) {
			return sched.Reschedule(ctx, *prev, delta, sched.WithSeed(seed))
		}
	} else {
		run = s.rescheduleRun(sourceID, delta, req.Seed)
	}
	j := s.buildJob(context.Background(), rec, req.TimeoutMS, run)
	j.persist = true
	return j, nil
}

// buildJob wraps a record and run closure in job lifecycle state. base
// is the context the run hangs off: the request context for synchronous
// calls, the background context for asynchronous jobs (they outlive the
// submit request). A TimeoutMS deadline starts here — it covers queue
// wait.
func (s *Server) buildJob(base context.Context, rec *Record, timeoutMS int64, run func(context.Context) (*sched.Result, error)) *job {
	ctx, cancel := base, context.CancelFunc(func() {})
	if timeoutMS > 0 {
		ctx, cancel = context.WithTimeout(base, time.Duration(timeoutMS)*time.Millisecond)
	}
	return &job{
		rec:     rec,
		run:     run,
		ctx:     ctx,
		cancel:  cancel,
		version: 1,
		changed: make(chan struct{}),
		done:    make(chan struct{}),
	}
}

// enqueue registers and submits a compiled job, updating the counters.
// replayed marks a job the store already holds (boot replay), skipping
// the duplicate Put. The accepted/in-flight counters move BEFORE the job
// becomes runnable: a worker can finish it (decrementing in-flight) the
// instant submit succeeds, and counting afterwards would let a /metrics
// scrape observe jobs_in_flight at -1 or jobs_completed ahead of
// jobs_accepted.
func (s *Server) enqueue(j *job, replayed bool) *ErrorBody {
	id := j.rec.ID
	if j.persist && !replayed {
		if err := s.rec.Put(j.record()); err != nil {
			s.metrics.StoreErrors.Add(1)
			s.metrics.JobsRejected.Add(1)
			j.cancel()
			return &ErrorBody{Code: CodeStoreUnavailable, Message: fmt.Sprintf("persist job: %v", err)}
		}
	}
	s.jobs.put(j)
	s.metrics.JobsAccepted.Add(1)
	s.metrics.JobsInFlight.Add(1)
	if err := s.pool.submit(j); err != nil {
		// Remove the stillborn job so it cannot be polled forever.
		s.metrics.JobsAccepted.Add(-1)
		s.metrics.JobsInFlight.Add(-1)
		s.jobs.delete(id)
		if j.persist && !replayed {
			s.rec.Evict(id)
		}
		j.cancel()
		s.metrics.JobsRejected.Add(1)
		if errors.Is(err, errDraining) {
			return &ErrorBody{Code: CodeShuttingDown, Message: "server is draining"}
		}
		return &ErrorBody{Code: CodeQueueFull, Message: "job queue is full, retry later"}
	}
	return nil
}

// runJob executes one job on a pool worker and records its outcome. The
// worker must survive anything the run does: a panicking or nil-result
// scheduler becomes the job's typed terminal error, never a dead worker
// goroutine (which would take the whole process down) or a nil
// dereference while rendering the response.
func (s *Server) runJob(j *job) {
	var (
		res     *sched.Result
		resp    *ScheduleResponse
		errBody *ErrorBody
	)
	if err := j.ctx.Err(); err != nil {
		// Deadline spent entirely in the queue.
		errBody = ctxErrorBody(err)
	} else {
		j.setRunning()
		var err error
		res, err = runGuarded(j)
		switch {
		case err == nil && (res == nil || res.Schedule == nil):
			errBody = &ErrorBody{Code: CodeScheduleFailed, Message: "scheduler returned no schedule"}
		case err == nil:
			s.metrics.observe(res)
			if resp, err = response(res); err != nil {
				errBody = &ErrorBody{Code: CodeScheduleFailed, Message: err.Error()}
			}
		case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
			errBody = ctxErrorBody(err)
		default:
			errBody = &ErrorBody{Code: CodeScheduleFailed, Message: err.Error(), Detail: validationDetail(err)}
		}
	}
	if errBody != nil {
		res = nil
		s.metrics.JobsFailed.Add(1)
	} else {
		s.metrics.JobsCompleted.Add(1)
	}
	s.metrics.JobsInFlight.Add(-1)
	rc := j.finish(s.cfg.Now(), res, resp, errBody)
	if j.persist {
		if err := s.rec.Finish(rc); err != nil {
			s.metrics.StoreErrors.Add(1)
		}
		// The terminal outcome replicates too, so successors can serve
		// (not recompute) finished jobs after this node dies — and a job
		// accepted here under a dead owner's key flows back to that owner
		// once it returns.
		s.replicateRecords([]*Record{rc})
		s.reconcileForeignKey(rc)
	} else if j.sink != nil {
		j.sink(rc)
	}
}

// runGuarded invokes the job's run closure, converting a panic into an
// ordinary error.
func runGuarded(j *job) (res *sched.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("scheduler panicked: %v", r)
		}
	}()
	return j.run(j.ctx)
}

// ctxErrorBody maps a context error to the wire error body. Cancellation
// (a synchronous caller that went away) reports the same code as an
// expired deadline: from the job's perspective both are "the time the
// caller allotted ran out".
func ctxErrorBody(err error) *ErrorBody {
	return &ErrorBody{Code: CodeDeadlineExceeded, Message: err.Error()}
}

// ---- request plumbing ----

// readBody slurps the JSON body under the body-size cap. Forwarding
// needs the raw bytes, so decoding is split from reading. A body whose
// length the client announced is read into one buffer of that size;
// io.ReadAll would grow its buffer by doubling, copying the body about
// twice over.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, *ErrorBody) {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	var (
		data []byte
		err  error
	)
	if n := r.ContentLength; n >= 0 && n <= s.cfg.MaxBodyBytes {
		data, err = readSized(r.Body, n)
	} else {
		data, err = io.ReadAll(r.Body)
	}
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return nil, &ErrorBody{Code: CodeBodyTooLarge, Message: fmt.Sprintf("request body exceeds %d bytes", s.cfg.MaxBodyBytes)}
		}
		return nil, &ErrorBody{Code: CodeBadRequest, Message: fmt.Sprintf("read request: %v", err)}
	}
	return data, nil
}

// readSized is io.ReadAll starting from a buffer of n+1 bytes: a body of
// n bytes fills it, and the read that finds EOF has its spare byte, so
// the buffer is never regrown. A longer body still reads in full.
func readSized(r io.Reader, n int64) ([]byte, error) {
	b := make([]byte, 0, n+1)
	for {
		m, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+m]
		if err != nil {
			if err == io.EOF {
				err = nil
			}
			return b, err
		}
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
	}
}

// unmarshalStrict decodes a request body, rejecting unknown fields.
func unmarshalStrict(data []byte, v any) *ErrorBody {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return &ErrorBody{Code: CodeBadRequest, Message: fmt.Sprintf("decode request: %v", err)}
	}
	return nil
}

// decode parses the JSON body under the body-size cap.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, req any) *ErrorBody {
	data, errBody := s.readBody(w, r)
	if errBody != nil {
		return errBody
	}
	return unmarshalStrict(data, req)
}

// ---- cluster routing ----

// routeToken resolves the address to forward a request to: the owner
// token must name another replica and the request must not already have
// crossed a hop (a forwarded request is served where it lands — two
// replicas disagreeing about membership must not bounce it forever).
// When the owner is dead and failover is on, the request reroutes to
// the owner's first live ring successor — the replica that adopted its
// jobs — or stays local when that successor is this node.
func (s *Server) routeToken(r *http.Request, token string) (string, bool) {
	if s.cluster == nil || token == "" || token == s.cluster.selfToken || r.Header.Get(forwardedHeader) != "" {
		return "", false
	}
	if s.replicas != nil && s.detector.dead(token) {
		if _, member := s.cluster.addrOf(token); member {
			succ := s.firstLiveSuccessor(token)
			if succ == "" || succ == s.cluster.selfToken {
				return "", false
			}
			return s.cluster.addrOf(succ)
		}
	}
	return s.cluster.addrOf(token)
}

// firstLiveSuccessor returns the member that takes over for a dead
// owner: the first of its ring successors the detector does not
// consider dead (this node is always live from its own perspective).
// Empty when every other member is dead too.
func (s *Server) firstLiveSuccessor(token string) string {
	for _, succ := range s.cluster.successorsOf(token, s.cluster.size()-1) {
		if succ == s.cluster.selfToken || !s.detector.dead(succ) {
			return succ
		}
	}
	return ""
}

// errBreakerOpen is what forward returns when the peer's circuit
// breaker refuses the attempt outright.
var errBreakerOpen = errors.New("circuit breaker open")

// forward issues one inter-replica request through addr's circuit
// breaker: an open breaker refuses the attempt without touching the
// network (a dead peer costs one bounded probe per cooldown instead of
// a connect timeout per request), failures count toward tripping it,
// and any success closes it.
func (s *Server) forward(req *http.Request, addr string) (*http.Response, error) {
	br := s.cluster.breakerFor(addr)
	if !br.allow(time.Now()) {
		s.metrics.BreakerShortCircuits.Add(1)
		return nil, errBreakerOpen
	}
	resp, err := s.cluster.client.Do(req)
	if err != nil {
		s.metrics.ForwardErrors.Add(1)
		if br.failure(time.Now()) {
			s.metrics.BreakerOpens.Add(1)
		}
		return nil, err
	}
	br.success()
	return resp, nil
}

// relay forwards the request to addr and streams the response back,
// flushing per chunk so SSE survives the hop. body nil means a bodyless
// method. Every attempt is bounded by ForwardTimeout except SSE
// streams, which legitimately outlive any fixed bound.
func (s *Server) relay(w http.ResponseWriter, r *http.Request, addr string, body []byte) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	ctx := r.Context()
	if !strings.HasSuffix(r.URL.Path, "/events") {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.ForwardTimeout)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(ctx, r.Method, "http://"+addr+r.URL.RequestURI(), rd)
	if err != nil {
		writeError(w, &ErrorBody{Code: CodeUpstreamUnavailable, Message: fmt.Sprintf("forward to %s: %v", addr, err)})
		return
	}
	req.Header.Set(forwardedHeader, s.cluster.self)
	if lastID := r.Header.Get("Last-Event-ID"); lastID != "" {
		req.Header.Set("Last-Event-ID", lastID)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := s.forward(req, addr)
	if err != nil {
		writeError(w, &ErrorBody{Code: CodeUpstreamUnavailable, Message: fmt.Sprintf("job owner %s unreachable: %v", addr, err)})
		return
	}
	defer resp.Body.Close()
	s.metrics.Forwards.Add(1)
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.WriteHeader(resp.StatusCode)
	flushCopy(w, resp.Body)
}

// flushCopy copies src to w, flushing after every chunk so streamed
// responses (SSE) propagate immediately instead of sitting in a buffer.
func flushCopy(w http.ResponseWriter, src io.Reader) {
	flusher, _ := w.(http.Flusher)
	buf := make([]byte, 32<<10)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		if err != nil {
			return
		}
	}
}

// storeGet fetches a record, lazily evicting it when its TTL passed —
// the store mirror of jobTable.get.
func (s *Server) storeGet(id string) (*Record, bool) {
	rec, ok := s.rec.Get(id)
	if !ok {
		return nil, false
	}
	if ttl := s.cfg.JobTTL; rec.Status.Terminal() && ttl > 0 && s.cfg.Now().Sub(rec.DoneAt) >= ttl {
		s.rec.Evict(id)
		return nil, false
	}
	return rec, true
}

// currentView renders the freshest view of a job: the live runtime job
// when present (its status moves before the store's), else the stored
// record.
func (s *Server) currentView(rec *Record) *JobView {
	if j, ok := s.jobs.get(rec.ID, s.cfg.Now(), s.cfg.JobTTL); ok {
		return j.view()
	}
	return viewOfRecord(rec)
}

// ---- replication and failover ----

// replicateRequest is the body of POST /v1/internal/replicate: an owner
// streaming record snapshots to its ring successors, or (Reconcile) a
// successor pushing outcomes back to a returned owner.
type replicateRequest struct {
	Origin    string    `json:"origin"` // sender's node token
	Reconcile bool      `json:"reconcile,omitempty"`
	Records   []*Record `json:"records"`
}

// handleReplicate receives replication and reconciliation pushes from
// peers. Replication lands in the replica side-store; reconciliation
// folds into this node's own store under first-terminal-wins.
func (s *Server) handleReplicate(w http.ResponseWriter, r *http.Request) {
	if s.cluster == nil {
		writeError(w, &ErrorBody{Code: CodeBadRequest, Message: "replication requires cluster mode"})
		return
	}
	var req replicateRequest
	if errBody := s.decode(w, r, &req); errBody != nil {
		writeError(w, errBody)
		return
	}
	if req.Reconcile {
		s.reconcile(req.Records)
	} else {
		if s.replicas == nil {
			writeError(w, &ErrorBody{Code: CodeBadRequest, Message: "replication disabled on this replica (-replicas 1)"})
			return
		}
		s.replicas.store(req.Origin, req.Records)
	}
	writeJSON(w, http.StatusOK, map[string]int{"records": len(req.Records)})
}

// reconcile folds records pushed by a peer into this node's own store:
// terminal outcomes a successor computed while this node was dead, and
// keyed jobs a successor accepted on its behalf. Adopt keeps the first
// terminal state, so anything this node already finished — including a
// WAL-replayed run that raced the push — is untouched, and the replayed
// run's bytes are identical to the adopted ones anyway.
func (s *Server) reconcile(recs []*Record) {
	for _, rec := range recs {
		if jobToken(rec.ID) == s.cluster.selfToken {
			s.jobs.bump(idSeq(rec.ID))
		}
		if err := s.rec.Adopt(rec); err != nil {
			s.metrics.StoreErrors.Add(1)
			continue
		}
		s.metrics.Reconciles.Add(1)
	}
}

// replicateJob streams one accepted job's persistence record to this
// node's ring successors — called after enqueue and BEFORE the 202 is
// written, so a SIGKILL right after the ack can never leave the record
// without a surviving copy. Not under keyMu: replication is network
// I/O, and serializing all keyed intake behind a slow successor would
// be worse than the benign double-send a racing duplicate could cause.
func (s *Server) replicateJob(j *job) {
	if s.replicas == nil || !j.persist {
		return
	}
	s.replicateRecords([]*Record{j.record()})
}

// replicateRecords pushes record snapshots to every ring successor.
// Best-effort per target: a successor that cannot be reached costs a
// counter (replication_errors_total), not the acceptance — the local
// store already holds the record.
func (s *Server) replicateRecords(recs []*Record) {
	if s.replicas == nil || len(recs) == 0 {
		return
	}
	data, err := json.Marshal(&replicateRequest{Origin: s.cluster.selfToken, Records: recs})
	if err != nil {
		s.metrics.ReplicationErrors.Add(1)
		return
	}
	for _, token := range s.cluster.successorsOf(s.cluster.selfToken, s.cfg.Replicas-1) {
		addr, ok := s.cluster.addrOf(token)
		if !ok {
			continue
		}
		if s.sendReplicate(addr, data) {
			s.metrics.ReplicatedJobs.Add(int64(len(recs)))
		} else {
			s.metrics.ReplicationErrors.Add(1)
		}
	}
}

// sendReplicate posts one replication payload to addr through its
// circuit breaker, bounded by ForwardTimeout.
func (s *Server) sendReplicate(addr string, data []byte) bool {
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.ForwardTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, "http://"+addr+"/v1/internal/replicate", bytes.NewReader(data))
	if err != nil {
		return false
	}
	req.Header.Set(forwardedHeader, s.cluster.self)
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.forward(req, addr)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // draining for connection reuse
	return resp.StatusCode/100 == 2
}

// onPeerDead is the detector's death hook: when this node is the dead
// owner's first live successor it fails over, re-enqueueing every
// replicated pending job under its original ID. Adopted jobs run with
// persist off and their outcome routed into the replica side-store —
// the records belong to the dead owner's store, not this node's — so a
// replayed run on the recovered owner and the adopted run here converge
// on byte-identical results via reconciliation.
func (s *Server) onPeerDead(token string) {
	if s.replicas == nil || s.firstLiveSuccessor(token) != s.cluster.selfToken {
		return
	}
	s.metrics.Failovers.Add(1)
	for _, rec := range s.replicas.pending(token) {
		if _, live := s.jobs.get(rec.ID, s.cfg.Now(), s.cfg.JobTTL); live {
			continue // already adopted by an earlier death of the same owner
		}
		j, errBody := s.rebuildJob(rec)
		if errBody == nil {
			j.persist = false
			j.sink = s.replicas.finish
			errBody = s.enqueue(j, true)
		}
		if errBody != nil {
			failed := rec.clone()
			failed.Status = JobFailed
			failed.Error = errBody
			failed.DoneAt = s.cfg.Now()
			s.replicas.finish(failed)
			continue
		}
		s.metrics.AdoptedJobs.Add(1)
	}
}

// onPeerRecovered is the detector's recovery hook: push everything this
// node holds on the returned owner's behalf — terminal outcomes of its
// adopted jobs, plus terminal jobs accepted here under keys the owner's
// ring range covers — so its store converges with what happened while
// it was gone. The push runs in a goroutine (reconciliation must not
// block probing) and is idempotent end to end.
func (s *Server) onPeerRecovered(token string) {
	if s.replicas == nil {
		return
	}
	recs := s.replicas.terminalRecords(token)
	for _, rec := range s.rec.List() {
		if rec.Status.Terminal() && rec.Key != "" && s.cluster.ownerToken(rec.Key) == token {
			recs = append(recs, rec)
		}
	}
	if len(recs) == 0 {
		return
	}
	addr, ok := s.cluster.addrOf(token)
	if !ok {
		return
	}
	go s.sendReconcile(addr, recs)
}

// reconcileForeignKey pushes a finished keyed record to the key's hash
// owner when that owner is another live member — the job was accepted
// here on a dead owner's behalf during failover, and without the push
// the returned owner would re-accept the key as brand new.
func (s *Server) reconcileForeignKey(rc *Record) {
	if s.replicas == nil || rc.Key == "" {
		return
	}
	owner := s.cluster.ownerToken(rc.Key)
	if owner == s.cluster.selfToken || s.detector.dead(owner) {
		return // dead owners get the push from onPeerRecovered instead
	}
	addr, ok := s.cluster.addrOf(owner)
	if !ok {
		return
	}
	go s.sendReconcile(addr, []*Record{rc})
}

func (s *Server) sendReconcile(addr string, recs []*Record) {
	data, err := json.Marshal(&replicateRequest{Origin: s.cluster.selfToken, Reconcile: true, Records: recs})
	if err != nil {
		return
	}
	s.sendReplicate(addr, data)
}

// unknownJobError distinguishes "never heard of this job" from "its
// owner is a dead member and no replica holds a copy": the former is a
// 404, the latter a 502 the client may retry once the owner returns.
func (s *Server) unknownJobError(id string) *ErrorBody {
	if token := jobToken(id); token != "" && s.cluster != nil && token != s.cluster.selfToken {
		if _, member := s.cluster.addrOf(token); member {
			return &ErrorBody{Code: CodeUpstreamUnavailable, Message: fmt.Sprintf("job %q's owner %s is unreachable and no replica holds it", id, token)}
		}
	}
	return &ErrorBody{Code: CodeNotFound, Message: fmt.Sprintf("no job %q (unknown, or expired after %v)", id, s.cfg.JobTTL)}
}

// ---- handlers ----

func (s *Server) handleSchedule(w http.ResponseWriter, r *http.Request) {
	var req ScheduleRequest
	if errBody := s.decode(w, r, &req); errBody != nil {
		s.metrics.JobsRejected.Add(1)
		writeError(w, errBody)
		return
	}
	// Synchronous calls are served wherever they land: the job is private
	// to this request, so ownership routing (and the idempotency key) do
	// not apply.
	j, errBody := s.newJob(r.Context(), &req, false)
	if errBody != nil {
		s.metrics.JobsRejected.Add(1)
		writeError(w, errBody)
		return
	}
	if errBody := s.enqueue(j, false); errBody != nil {
		writeError(w, errBody)
		return
	}
	select {
	case <-j.done:
	case <-r.Context().Done():
		// The worker observes the same context and finishes the job as
		// failed; wait for it so the handler never abandons a live run.
		<-j.done
	}
	// A synchronous job's ID is never disclosed, so nobody can poll it:
	// drop it now instead of letting every sync response's schedule
	// document sit in the table for a full JobTTL.
	s.jobs.delete(j.rec.ID)
	v := j.view()
	if v.Error != nil {
		writeError(w, v.Error)
		return
	}
	writeEncoded(w, v.Result.encode)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, errBody := s.readBody(w, r)
	if errBody == nil {
		var req ScheduleRequest
		if errBody = unmarshalStrict(body, &req); errBody == nil {
			// Keyed submissions are owned by the key's hash owner so
			// duplicates land on one replica no matter who received them;
			// keyless ones stay local (their ID carries this node's token,
			// which routes every later lookup here).
			if req.IdempotencyKey != "" {
				if addr, ok := s.routeToken(r, s.cluster.ownerTokenIfClustered(req.IdempotencyKey)); ok {
					s.relay(w, r, addr, body)
					return
				}
			}
			s.submitLocal(w, &req)
			return
		}
	}
	s.metrics.JobsRejected.Add(1)
	writeError(w, errBody)
}

// ownerTokenIfClustered is ownerToken tolerating a nil receiver, so the
// single-node path needs no branch.
func (c *cluster) ownerTokenIfClustered(key string) string {
	if c == nil {
		return ""
	}
	return c.ownerToken(key)
}

// submitLocal accepts one asynchronous submission on this replica,
// deduplicating by idempotency key. A duplicate returns the original
// job's current view with HTTP 200 (not 202 — nothing was accepted).
func (s *Server) submitLocal(w http.ResponseWriter, req *ScheduleRequest) {
	dup, j, errBody := s.accept(req)
	switch {
	case errBody != nil:
		writeError(w, errBody)
	case dup != nil:
		writeJSON(w, http.StatusOK, dup)
	default:
		s.replicateJob(j)
		writeJSON(w, http.StatusAccepted, j.view())
	}
}

// accept admits one asynchronous submission: dedup by idempotency key
// (this node's store first, then the replica side-store — a key whose
// dead owner's copy landed here must not double-accept), compile,
// enqueue. Exactly one of the three returns is set. keyMu is held only
// through the dedup-check-and-enqueue window, NOT through replication —
// the caller replicates after, so keyed intake never serializes behind
// a slow successor's network round trip.
func (s *Server) accept(req *ScheduleRequest) (*JobView, *job, *ErrorBody) {
	if req.IdempotencyKey != "" {
		s.keyMu.Lock()
		defer s.keyMu.Unlock()
		if rec, ok := s.rec.ByKey(req.IdempotencyKey); ok {
			if _, live := s.storeGet(rec.ID); live {
				s.metrics.IdempotentHits.Add(1)
				return s.currentView(rec), nil, nil
			}
			// The key's job TTL-expired: the key is free again.
		}
		if s.replicas != nil {
			if rec, ok := s.replicas.byKey(req.IdempotencyKey); ok {
				s.metrics.IdempotentHits.Add(1)
				return s.currentView(rec), nil, nil
			}
		}
	}
	j, errBody := s.newJob(context.Background(), req, true)
	if errBody != nil {
		s.metrics.JobsRejected.Add(1)
		return nil, nil, errBody
	}
	if errBody := s.enqueue(j, false); errBody != nil {
		return nil, nil, errBody
	}
	return nil, j, nil
}

// handleBatch accepts many submissions in one request. Top-level
// documents act as per-job defaults, so a parameter sweep pays wire cost
// once instead of per job; like every intake path, it compiles only
// documents the server has not compiled before. Jobs are accepted or
// rejected independently — the response carries one BatchItem per job,
// in order — and in cluster mode each job is routed to its key's owner
// in per-owner sub-batches.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	body, errBody := s.readBody(w, r)
	if errBody != nil {
		s.metrics.JobsRejected.Add(1)
		writeError(w, errBody)
		return
	}
	var batch BatchRequest
	if errBody := unmarshalStrict(body, &batch); errBody != nil {
		s.metrics.JobsRejected.Add(1)
		writeError(w, errBody)
		return
	}
	if len(batch.Jobs) == 0 {
		s.metrics.JobsRejected.Add(1)
		writeError(w, &ErrorBody{Code: CodeBadRequest, Message: "empty batch"})
		return
	}
	// Resolve the defaults into each job so downstream handling (local or
	// forwarded) sees self-contained requests.
	for i := range batch.Jobs {
		job := &batch.Jobs[i]
		if !hasDoc(job.Graph) {
			job.Graph = batch.Graph
		}
		if !hasDoc(job.System) && !hasDoc(job.Topology) && job.Topo == nil {
			job.System = batch.System
			job.Topology = batch.Topology
			job.Topo = batch.Topo
			if job.Het == nil {
				job.Het = batch.Het
			}
		}
	}
	s.metrics.observeBatch(len(batch.Jobs))

	resp := BatchResponse{Jobs: make([]BatchItem, len(batch.Jobs))}
	local := make([]int, 0, len(batch.Jobs))
	remote := make(map[string][]int) // forward address -> job indices
	for i := range batch.Jobs {
		token := ""
		if key := batch.Jobs[i].IdempotencyKey; key != "" {
			token = s.cluster.ownerTokenIfClustered(key)
		}
		// Keyed by resolved address, not owner token: failover can route
		// two different dead owners' keys to one adopter, and those still
		// belong in a single sub-batch.
		if addr, ok := s.routeToken(r, token); ok {
			remote[addr] = append(remote[addr], i)
		} else {
			local = append(local, i)
		}
	}
	for _, i := range local {
		resp.Jobs[i] = s.batchItemLocal(&batch.Jobs[i])
	}
	for addr, idxs := range remote {
		items := s.batchForward(r, addr, batch.Jobs, idxs)
		for k, i := range idxs {
			resp.Jobs[i] = items[k]
		}
	}
	writeJSON(w, http.StatusAccepted, &resp)
}

// batchItemLocal accepts one batch job on this replica. It mirrors
// submitLocal without writing to the response directly.
func (s *Server) batchItemLocal(req *ScheduleRequest) BatchItem {
	dup, j, errBody := s.accept(req)
	switch {
	case errBody != nil:
		return BatchItem{Error: errBody}
	case dup != nil:
		return BatchItem{Job: dup}
	default:
		s.replicateJob(j)
		return BatchItem{Job: j.view()}
	}
}

// batchForward ships the indexed jobs to their owner as a sub-batch and
// returns its items. An owner that answers with a top-level error
// (draining, body too large, ...) has that error propagated to each
// item; only an owner we could not get an answer from fails them with
// 502 upstream_unavailable.
func (s *Server) batchForward(r *http.Request, addr string, jobs []ScheduleRequest, idxs []int) []BatchItem {
	sub := BatchRequest{Jobs: make([]ScheduleRequest, len(idxs))}
	for k, i := range idxs {
		sub.Jobs[k] = jobs[i]
	}
	fail := func(err error) []BatchItem {
		e := &ErrorBody{Code: CodeUpstreamUnavailable, Message: fmt.Sprintf("job owner %s unreachable: %v", addr, err)}
		items := make([]BatchItem, len(idxs))
		for k := range items {
			items[k] = BatchItem{Error: e}
		}
		return items
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.ForwardTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, "http://"+addr+"/v1/batch", bytes.NewReader(sub.wireDoc()))
	if err != nil {
		return fail(err)
	}
	req.Header.Set(forwardedHeader, s.cluster.self)
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.forward(req, addr)
	if err != nil {
		return fail(err)
	}
	defer resp.Body.Close()
	s.metrics.Forwards.Add(1)
	respData, err := io.ReadAll(resp.Body)
	if err != nil {
		return fail(err)
	}
	if resp.StatusCode/100 != 2 {
		// The owner was reachable and answered with a typed error (draining,
		// body too large, ...): pass its real code through to every item
		// instead of mislabeling it "unreachable".
		var env errorEnvelope
		if err := json.Unmarshal(respData, &env); err == nil && env.Error != nil {
			items := make([]BatchItem, len(idxs))
			for k := range items {
				items[k] = BatchItem{Error: env.Error}
			}
			return items
		}
		return fail(fmt.Errorf("owner answered http %d with no error envelope", resp.StatusCode))
	}
	var out BatchResponse
	if err := json.Unmarshal(respData, &out); err != nil || len(out.Jobs) != len(idxs) {
		return fail(fmt.Errorf("malformed sub-batch response (http %d)", resp.StatusCode))
	}
	return out.Jobs
}

// handleReschedule accepts a quasi-dynamic delta against a finished
// job's schedule and queues the warm-started reconvergence as a fresh
// asynchronous job. The response is the same 202 + JobView shape as
// POST /v1/jobs; the resulting schedule document is byte-identical to
// what sched.Reschedule produces for the same inputs. The source may be
// live (retained result, delta preflighted against its problem) or a
// stored record from before a restart (recomputed at run time).
func (s *Server) handleReschedule(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	body, errBody := s.readBody(w, r)
	if errBody != nil {
		s.metrics.JobsRejected.Add(1)
		writeError(w, errBody)
		return
	}
	if addr, ok := s.routeToken(r, jobToken(id)); ok {
		s.relay(w, r, addr, body)
		return
	}
	var req RescheduleRequest
	if errBody := unmarshalStrict(body, &req); errBody != nil {
		s.metrics.JobsRejected.Add(1)
		writeError(w, errBody)
		return
	}
	var prev *sched.Result
	if src, ok := s.jobs.get(id, s.cfg.Now(), s.cfg.JobTTL); ok {
		done := false
		if prev, done = src.doneResult(); !done {
			s.metrics.JobsRejected.Add(1)
			writeError(w, &ErrorBody{Code: CodeJobNotDone, Message: fmt.Sprintf("job %q has no completed schedule to reschedule from", id)})
			return
		}
	} else if rec, ok := s.sourceRecord(id); ok {
		if rec.Status != JobDone {
			s.metrics.JobsRejected.Add(1)
			writeError(w, &ErrorBody{Code: CodeJobNotDone, Message: fmt.Sprintf("job %q has no completed schedule to reschedule from", id)})
			return
		}
		// prev stays nil: the run recomputes the source result from its
		// stored recipe.
	} else {
		s.metrics.JobsRejected.Add(1)
		writeError(w, s.unknownJobError(id))
		return
	}
	j, errBody := s.newRescheduleJob(id, prev, &req)
	if errBody != nil {
		s.metrics.JobsRejected.Add(1)
		writeError(w, errBody)
		return
	}
	if errBody := s.enqueue(j, false); errBody != nil {
		writeError(w, errBody)
		return
	}
	s.replicateJob(j)
	writeJSON(w, http.StatusAccepted, j.view())
}

// sourceRecord resolves a record usable as a reschedule source: this
// node's own store, then the replica side-store (a dead owner's job
// this node holds a copy of).
func (s *Server) sourceRecord(id string) (*Record, bool) {
	if rec, ok := s.storeGet(id); ok {
		return rec, true
	}
	if s.replicas != nil {
		if rec, ok := s.replicas.get(id); ok {
			return rec, true
		}
	}
	return nil, false
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if addr, ok := s.routeToken(r, jobToken(id)); ok {
		s.relay(w, r, addr, nil)
		return
	}
	if j, ok := s.jobs.get(id, s.cfg.Now(), s.cfg.JobTTL); ok {
		writeEncoded(w, j.view().encode)
		return
	}
	if rec, ok := s.sourceRecord(id); ok {
		writeEncoded(w, viewOfRecord(rec).encode)
		return
	}
	writeError(w, s.unknownJobError(id))
}

// writeEncoded is writeJSON for a 200 body with a schedule document,
// which encode (JobView.encode or ScheduleResponse.encode) streams
// verbatim.
func writeEncoded(w http.ResponseWriter, encode func(io.Writer) error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	if encode(w) == nil {
		io.WriteString(w, "\n") //nolint:errcheck // the response is already committed
	}
}

// handleEvents streams a job's status transitions as server-sent events
// ("event: status", data: the JobView JSON) until the job is terminal or
// the client goes away. The stream coalesces: a client always sees the
// current view and the terminal view, but may skip intermediate states
// it was too slow for. Events carry monotonically increasing ids (the
// job's transition version), so a client reconnecting with Last-Event-ID
// resumes without re-receiving views it already processed.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if addr, ok := s.routeToken(r, jobToken(id)); ok {
		s.relay(w, r, addr, nil)
		return
	}
	lastID := 0
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			lastID = n
		}
	}
	j, live := s.jobs.get(id, s.cfg.Now(), s.cfg.JobTTL)
	var rec *Record
	if !live {
		var ok bool
		if rec, ok = s.sourceRecord(id); !ok {
			writeError(w, s.unknownJobError(id))
			return
		}
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, &ErrorBody{Code: CodeBadRequest, Message: "streaming unsupported by this connection"})
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	if !live {
		// Record-only jobs have no transition stream (own-store records
		// here are terminal; a replicated pending record gains a live job
		// only once its owner is declared dead): one event tells the whole
		// story as of now.
		writeSSE(w, lastID+1, viewOfRecord(rec)) //nolint:errcheck // single shot; nothing to do on a gone client
		flusher.Flush()
		return
	}
	for {
		v, version, changed := j.snapshot()
		if version > lastID {
			if err := writeSSE(w, version, v); err != nil {
				return
			}
			flusher.Flush()
			lastID = version
		}
		if v.Status.Terminal() {
			return
		}
		select {
		case <-changed:
		case <-r.Context().Done():
			return
		}
	}
}

// writeSSE emits one SSE status event with its id. The data line is
// compact JSON — newlines would break the line-oriented framing — and
// streams the schedule document verbatim (see JobView.encode).
func writeSSE(w io.Writer, id int, v *JobView) error {
	if _, err := fmt.Fprintf(w, "id: %d\nevent: status\ndata: ", id); err != nil {
		return err
	}
	if err := v.encode(w); err != nil {
		return err
	}
	_, err := io.WriteString(w, "\n\n")
	return err
}

func (s *Server) handleAlgos(w http.ResponseWriter, r *http.Request) {
	ds := sched.List()
	out := make([]AlgoInfo, 0, len(ds))
	for _, d := range ds {
		out = append(out, AlgoInfo{Name: d.Name, Aliases: d.Aliases, Description: d.Description})
	}
	writeJSON(w, http.StatusOK, out)
}

// handleCluster reports the configured member set with a live health
// probe of every peer. A single-node server answers with a synthetic
// one-row view, so clients need not special-case topology.
func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request) {
	if s.cluster == nil {
		writeJSON(w, http.StatusOK, &ClusterView{
			Self:  "local",
			Nodes: []NodeView{{Token: "local", Self: true, Healthy: true, Jobs: s.jobs.size()}},
		})
		return
	}
	tokens := s.cluster.tokens()
	view := &ClusterView{Self: s.cluster.selfToken, Nodes: make([]NodeView, len(tokens))}
	var wg sync.WaitGroup
	for i, token := range tokens {
		addr, _ := s.cluster.addrOf(token)
		node := NodeView{Token: token, Addr: addr}
		if s.detector != nil {
			node.State = s.detector.stateOf(token)
		}
		if token == s.cluster.selfToken {
			node.Self = true
			node.Healthy = !s.draining.Load()
			node.Jobs = s.jobs.size()
			if s.detector != nil {
				node.State = peerAlive
			}
			view.Nodes[i] = node
			continue
		}
		// Probes fan out concurrently, each capped at ProbeTimeout, so one
		// slow or dead peer delays the view by at most one timeout instead
		// of stalling the whole walk.
		wg.Add(1)
		go func(i int, node NodeView) {
			defer wg.Done()
			node.Healthy = s.probe(r.Context(), node.Addr)
			view.Nodes[i] = node
		}(i, node)
	}
	wg.Wait()
	writeJSON(w, http.StatusOK, view)
}

// probe checks a peer's /healthz within the configured ProbeTimeout.
func (s *Server) probe(ctx context.Context, addr string) bool {
	ctx, cancel := context.WithTimeout(ctx, s.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+addr+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := s.cluster.client.Do(req)
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintln(w, s.metrics.vars.String())
}

// writeJSON writes v as compact JSON, so a document embedded as raw JSON
// (ScheduleResponse.Schedule) reaches the client as the library's exact
// bytes; schedctl pretty-prints what it shows.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // the response is already committed
}

// retryAfterSeconds is the Retry-After hint attached to every 503: the
// conditions behind them (full queue, drain, store hiccup) clear on the
// order of a second, so clients should pause rather than hammer.
const retryAfterSeconds = 1

func writeError(w http.ResponseWriter, e *ErrorBody) {
	status := httpStatus(e.Code)
	if status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
	}
	writeJSON(w, status, errorEnvelope{Error: e})
}
