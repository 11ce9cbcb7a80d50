package service

import (
	"context"
	"expvar"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"strconv"
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
	_, err := newCluster(c)
	return err
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
	cl       *cluster // cluster mode; nil on a single node
	metrics  *metrics
	draining atomic.Bool
	// compiled caches compiled graphs and systems across requests.
	compiled *compileCache

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
	cl, _ := newCluster(&cfg) // Validate already vetted it
	s := &Server{
		cfg:         cfg,
		mux:         http.NewServeMux(),
		jobs:        newJobTable(),
		rec:         cfg.Store,
		cl:          cl,
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
	s.mux.HandleFunc("POST /v1/internal/replicate", cl.handleReplicate)
	cl.start(s)
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
	s.cl.close()
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
			s.cl.sweep(now, s.cfg.JobTTL)
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
		s.readmit(rec, nil)
	}
}

// readmit re-enqueues a pending record's job under its original ID,
// reporting whether it did. finish nil means the record is this node's
// own: the store already holds it (that is how we got here), so the
// rebuilt job writes only its terminal transition back — otherwise the
// record would stay "queued" forever: never TTL-swept, re-run on every
// boot, and served stale once the runtime job expires. A non-nil finish
// takes the terminal record instead (an adopted foreign job's outcome
// goes to the replica side-store). When the recipe no longer compiles
// (algorithm unregistered in this binary, hand-edited log) or the pool
// is already full, the record fails, so clients see a terminal answer
// instead of a forever-queued ghost.
func (s *Server) readmit(rec *Record, finish func(*Record)) bool {
	j, errBody := s.rebuildJob(rec)
	if errBody == nil {
		j.persist, j.sink = finish == nil, finish
		if errBody = s.enqueue(j, true); errBody == nil {
			return true
		}
	}
	failed := rec.clone()
	failed.Status = JobFailed
	failed.Error = errBody
	failed.DoneAt = s.cfg.Now()
	if finish != nil {
		finish(failed)
	} else if err := s.rec.Finish(failed); err != nil {
		s.metrics.StoreErrors.Add(1)
	}
	return false
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
	if !ok {
		// A replicated copy of a dead owner's record serves as the recipe
		// just as well — it is byte-identical to what the owner stored.
		rec, ok = s.cl.replica(id)
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

// sourceRecord resolves a record usable as a reschedule source: this
// node's own store, then the replica side-store (a dead owner's job
// this node holds a copy of).
func (s *Server) sourceRecord(id string) (*Record, bool) {
	if rec, ok := s.storeGet(id); ok {
		return rec, true
	}
	return s.cl.replica(id)
}

// unknownJobError distinguishes "never heard of this job" from "its
// owner is a dead member and no replica holds a copy": the former is a
// 404, the latter a 502 the client may retry once the owner returns.
func (s *Server) unknownJobError(id string) *ErrorBody {
	if e := s.cl.ownerUnreachable(id); e != nil {
		return e
	}
	return &ErrorBody{Code: CodeNotFound, Message: fmt.Sprintf("no job %q (unknown, or expired after %v)", id, s.cfg.JobTTL)}
}

// ---- handlers ----

// reject answers a request refused before queueing, counting it in
// jobs_rejected.
func (s *Server) reject(w http.ResponseWriter, e *ErrorBody) {
	s.metrics.JobsRejected.Add(1)
	writeError(w, e)
}

func (s *Server) handleSchedule(w http.ResponseWriter, r *http.Request) {
	var req ScheduleRequest
	if errBody := s.decode(w, r, &req); errBody != nil {
		s.reject(w, errBody)
		return
	}
	// Synchronous calls are served wherever they land: the job is private
	// to this request, so ownership routing (and the idempotency key) do
	// not apply.
	j, errBody := s.newJob(r.Context(), &req, false)
	if errBody != nil {
		s.reject(w, errBody)
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
			if addr, ok := s.cl.routeKey(r, req.IdempotencyKey); ok {
				s.cl.relay(w, r, addr, body)
				return
			}
			s.submitLocal(w, &req)
			return
		}
	}
	s.reject(w, errBody)
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
		s.cl.replicateJob(j)
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
		if rec, ok := s.cl.replicaByKey(req.IdempotencyKey); ok {
			s.metrics.IdempotentHits.Add(1)
			return s.currentView(rec), nil, nil
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
		s.reject(w, errBody)
		return
	}
	var batch BatchRequest
	if errBody := unmarshalStrict(body, &batch); errBody != nil {
		s.reject(w, errBody)
		return
	}
	if len(batch.Jobs) == 0 {
		s.reject(w, &ErrorBody{Code: CodeBadRequest, Message: "empty batch"})
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
	remote := make(map[string][]int) // forward address -> job indices
	for i := range batch.Jobs {
		// Keyed by resolved address, not owner token: failover can route
		// two different dead owners' keys to one adopter, and those still
		// belong in a single sub-batch.
		if addr, ok := s.cl.routeKey(r, batch.Jobs[i].IdempotencyKey); ok {
			remote[addr] = append(remote[addr], i)
		} else {
			resp.Jobs[i] = s.batchItemLocal(&batch.Jobs[i])
		}
	}
	for addr, idxs := range remote {
		items := s.cl.batchForward(r, addr, batch.Jobs, idxs)
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
		s.cl.replicateJob(j)
		return BatchItem{Job: j.view()}
	}
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
		s.reject(w, errBody)
		return
	}
	if addr, ok := s.cl.route(r, jobToken(id)); ok {
		s.cl.relay(w, r, addr, body)
		return
	}
	var req RescheduleRequest
	if errBody := unmarshalStrict(body, &req); errBody != nil {
		s.reject(w, errBody)
		return
	}
	var (
		prev *sched.Result
		done bool
	)
	if src, ok := s.jobs.get(id, s.cfg.Now(), s.cfg.JobTTL); ok {
		prev, done = src.doneResult()
	} else if rec, ok := s.sourceRecord(id); ok {
		// prev stays nil: the run recomputes the source result from its
		// stored recipe.
		done = rec.Status == JobDone
	} else {
		s.reject(w, s.unknownJobError(id))
		return
	}
	if !done {
		s.reject(w, &ErrorBody{Code: CodeJobNotDone, Message: fmt.Sprintf("job %q has no completed schedule to reschedule from", id)})
		return
	}
	j, errBody := s.newRescheduleJob(id, prev, &req)
	if errBody != nil {
		s.reject(w, errBody)
		return
	}
	if errBody := s.enqueue(j, false); errBody != nil {
		writeError(w, errBody)
		return
	}
	s.cl.replicateJob(j)
	writeJSON(w, http.StatusAccepted, j.view())
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if addr, ok := s.cl.route(r, jobToken(id)); ok {
		s.cl.relay(w, r, addr, nil)
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

// handleEvents streams a job's status transitions as server-sent events
// ("event: status", data: the JobView JSON) until the job is terminal or
// the client goes away. The stream coalesces: a client always sees the
// current view and the terminal view, but may skip intermediate states
// it was too slow for. Events carry monotonically increasing ids (the
// job's transition version), so a client reconnecting with Last-Event-ID
// resumes without re-receiving views it already processed.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if addr, ok := s.cl.route(r, jobToken(id)); ok {
		s.cl.relay(w, r, addr, nil)
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

func (s *Server) handleAlgos(w http.ResponseWriter, r *http.Request) {
	ds := sched.List()
	out := make([]AlgoInfo, 0, len(ds))
	for _, d := range ds {
		out = append(out, AlgoInfo{Name: d.Name, Aliases: d.Aliases, Description: d.Description})
	}
	writeJSON(w, http.StatusOK, out)
}

// handleCluster reports the configured member set with a live health
// probe of every peer (see cluster.view).
func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.cl.view(r.Context(), s.jobs.size()))
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
