package service

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/sched"
)

// job is one unit of scheduling work: a compiled run closure plus its
// lifecycle state. Handlers compile requests into jobs (so every
// validation error surfaces before queueing), the pool runs them, the
// jobTable keeps them addressable until their TTL expires, and the
// server's Store mirrors the persistent Record of every asynchronous
// job.
type job struct {
	// rec carries the job's persistent fields — ID, status, outcome, the
	// original request document and reschedule lineage. Guarded by mu.
	rec *Record

	// run executes the work — a cold scheduler call or a warm-started
	// reschedule — under the job's context.
	run func(context.Context) (*sched.Result, error)

	// ctx bounds the run (queue wait included); cancel releases its
	// timer once the job reaches a terminal state.
	ctx    context.Context
	cancel context.CancelFunc

	// persist marks the job as store-backed: accepted asynchronously and
	// mirrored into the server's Store. Synchronous jobs never are —
	// their IDs are not disclosed, so nothing can look them up later.
	persist bool

	// sink, when set on a non-persisted job, receives the terminal
	// Record instead of the server's Store — adopted foreign jobs route
	// their outcome into the replica side-store this way.
	sink func(*Record)

	mu sync.Mutex
	// version counts status transitions, starting at 1 for the queued
	// view. SSE events carry it as their event ID, so a reconnecting
	// client resumes with Last-Event-ID and skips views it already saw.
	version int
	// res retains the library result of a done job so a follow-up
	// reschedule can warm-start from its schedule without recomputing
	// the lineage. Evicted with the job.
	res *sched.Result
	// changed closes on every status transition and is immediately
	// replaced — SSE streams select on it to wake exactly when the view
	// they last rendered went stale.
	changed chan struct{}

	// done closes when the job reaches a terminal state; the sync
	// handler and Client.Wait-backed tests select on it.
	done chan struct{}
}

// view snapshots the job's wire form.
func (j *job) view() *JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	return viewOfRecord(j.rec)
}

// snapshot returns the wire view, its version and a channel that
// signals the first status transition after it — the SSE streaming
// primitive.
func (j *job) snapshot() (*JobView, int, <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return viewOfRecord(j.rec), j.version, j.changed
}

// record snapshots the persistent form. The Result, Error and raw
// document fields are immutable once set, so the shallow copy is safe
// to hand to a Store.
func (j *job) record() *Record {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.rec.clone()
}

// signal wakes every snapshot waiter. Callers hold mu.
func (j *job) signal() {
	j.version++
	close(j.changed)
	j.changed = make(chan struct{})
}

func (j *job) setRunning() {
	j.mu.Lock()
	j.rec.Status = JobRunning
	j.signal()
	j.mu.Unlock()
}

// finish moves the job to its terminal state and returns the Record
// snapshot the caller persists.
func (j *job) finish(now time.Time, res *sched.Result, resp *ScheduleResponse, errBody *ErrorBody) *Record {
	j.mu.Lock()
	if errBody != nil {
		j.rec.Status = JobFailed
		j.rec.Error = errBody
	} else {
		j.rec.Status = JobDone
		j.rec.Result = resp
		j.res = res
	}
	j.rec.DoneAt = now
	rc := j.rec.clone()
	j.signal()
	j.mu.Unlock()
	j.cancel()
	close(j.done)
	return rc
}

// doneResult returns the retained library result once the job is done.
func (j *job) doneResult() (*sched.Result, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.rec.Status != JobDone || j.res == nil {
		return nil, false
	}
	return j.res, true
}

// terminalSince returns the terminal-transition time, or false while the
// job is still queued or running.
func (j *job) terminalSince() (time.Time, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.rec.DoneAt, j.rec.Status.Terminal()
}

// ---- job construction and the run path ----

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
		s.cl.finished(rc)
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

// ---- the runtime table ----

// jobTable is the in-memory runtime table: every job submitted (or
// replayed) in this process, TTL-evicted once terminal. It is the live
// complement of the Store — jobs here carry contexts, run closures and
// watcher channels that no persistent record can.
type jobTable struct {
	mu   sync.Mutex
	jobs map[string]*job
	seq  atomic.Uint64
	// prefix names this node in its job IDs: cluster.start sets it to the
	// node token and a dot. Empty on a single node.
	prefix string
}

func newJobTable() *jobTable {
	return &jobTable{jobs: make(map[string]*job)}
}

// nextID returns a process-unique job ID, prefixed with the replica's
// node token when clustered ("3a5f9c21.j17") so any replica can route a
// job reference back to its owner.
func (t *jobTable) nextID() string {
	return t.prefix + "j" + strconv.FormatUint(t.seq.Add(1), 10)
}

// bump raises the ID sequence to at least n — store replay calls it so
// re-admitted jobs keep their original IDs without colliding with the
// ones this boot will assign.
func (t *jobTable) bump(n uint64) {
	for {
		cur := t.seq.Load()
		if cur >= n || t.seq.CompareAndSwap(cur, n) {
			return
		}
	}
}

// idSeq extracts the numeric sequence from a job ID ("j17" or
// "token.j17" → 17), 0 when the ID has another shape.
func idSeq(id string) uint64 {
	if i := strings.LastIndexByte(id, '.'); i >= 0 {
		id = id[i+1:]
	}
	if len(id) < 2 || id[0] != 'j' {
		return 0
	}
	n, err := strconv.ParseUint(id[1:], 10, 64)
	if err != nil {
		return 0
	}
	return n
}

func (t *jobTable) put(j *job) {
	t.mu.Lock()
	t.jobs[j.rec.ID] = j
	t.mu.Unlock()
}

func (t *jobTable) delete(id string) {
	t.mu.Lock()
	delete(t.jobs, id)
	t.mu.Unlock()
}

// get returns the job, lazily evicting it when its TTL has passed.
func (t *jobTable) get(id string, now time.Time, ttl time.Duration) (*job, bool) {
	t.mu.Lock()
	j, ok := t.jobs[id]
	t.mu.Unlock()
	if !ok {
		return nil, false
	}
	if doneAt, terminal := j.terminalSince(); terminal && ttl > 0 && now.Sub(doneAt) >= ttl {
		t.mu.Lock()
		delete(t.jobs, id)
		t.mu.Unlock()
		return nil, false
	}
	return j, true
}

// sweep evicts every terminal job older than ttl and returns how many it
// removed.
func (t *jobTable) sweep(now time.Time, ttl time.Duration) int {
	if ttl <= 0 {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for id, j := range t.jobs {
		if doneAt, terminal := j.terminalSince(); terminal && now.Sub(doneAt) >= ttl {
			delete(t.jobs, id)
			n++
		}
	}
	return n
}

// size returns the number of live runtime jobs (any state).
func (t *jobTable) size() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.jobs)
}
