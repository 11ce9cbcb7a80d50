// Package service turns the repro/sched library into a long-running
// scheduling service: an HTTP API that accepts problems in the public
// JSON interchange formats, schedules them on a bounded worker pool with
// any registered algorithm, persists accepted jobs through a pluggable
// Store, and scales past one process as a consistent-hash replica tier.
//
// The package consumes only the public repro/sched surface (sched,
// sched/graph, sched/system) — it is written as the external consumer it
// serves. Algorithms arrive through the sched registry: blank-import
// repro/sched/register for the built-ins, or sched.Register your own;
// every registered name is schedulable per request.
//
// # Wire API
//
//	POST /v1/schedule                schedule synchronously; body is a
//	                                 ScheduleRequest, response a ScheduleResponse
//	POST /v1/jobs                    submit asynchronously; 202 + JobView.
//	                                 An IdempotencyKey deduplicates: resubmitting
//	                                 an accepted key returns the original job
//	                                 with 200 instead of scheduling again
//	POST /v1/batch                   many submissions in one request; top-level
//	                                 graph/system/topology/het act as per-job
//	                                 defaults; 202 + BatchResponse with
//	                                 independent per-job outcomes
//	GET  /v1/jobs/{id}               poll a job until its Status is terminal
//	GET  /v1/jobs/{id}/events        SSE stream ("event: status", data: JobView
//	                                 JSON) of status transitions until terminal —
//	                                 the push alternative to polling
//	POST /v1/jobs/{id}/reschedule    quasi-dynamic delta on a done job
//	GET  /v1/algos                   the registry's algorithms
//	GET  /v1/cluster                 replica membership with live health probes
//	GET  /healthz                    liveness (503 "draining" during shutdown)
//	GET  /metrics                    expvar counters (below)
//
// Identical documents compile once per server, not once per request:
// the server keeps the graphs and systems it compiled in a cache shared
// by every intake path (sync, async, batch, boot replay and reschedule
// recomputation), keyed by the exact document bytes. A problem resubmitted
// with another seed, or a batch sweep over one problem, skips parsing
// and validation. The cache is bounded at 64 MiB: each entry is charged
// its document bytes plus its compiled size, and an insert that would
// pass the bound starts the cache over. Compiled problems are immutable,
// so sharing them changes no schedule.
//
// Errors are typed: every non-2xx body is {"error":{"code","message"}}
// with a stable code (CodeBadRequest, CodeUnknownAlgorithm,
// CodeDeadlineExceeded, CodeBodyTooLarge, CodeUpstreamUnavailable, ...).
// Per-request deadlines (TimeoutMS) map to context cancellation inside
// the algorithms' own loops, so a timed-out run stops computing instead
// of merely not being reported.
//
// # Persistence
//
// Every asynchronous job is written through the configured Store: Put on
// accept, Finish on the terminal transition, Evict/Sweep on TTL expiry.
// The default MemStore keeps records for the process lifetime; OpenWAL
// returns a disk-backed store (append-only JSON-lines log plus snapshot
// compaction) that survives restarts. On construction the server replays
// the store: terminal records become servable again and usable as
// reschedule sources, pending records — jobs a previous process accepted
// but never finished — are recompiled from their stored recipe and
// re-enqueued under their original IDs. Because every registered
// scheduler is deterministic, the replayed run produces byte-identical
// schedule documents to what the interrupted run would have; reschedule
// lineage is recomputed recursively the same way. Synchronous jobs are
// never persisted (their IDs are not disclosed).
//
// A persisted job holds its request by reference (Record.Request): the
// request's graph, system and topology documents are the compile
// cache's copies, so the jobs of one problem share one copy of its
// documents for as long as they are retained, and the request must be
// treated as immutable. Records encode exactly as before, so WAL lines,
// snapshots and replication bodies are unchanged and older logs replay.
// Records loaded from a WAL or received from a replica hold their own
// decoded copies of the documents.
//
// # Clustering
//
// Config.Self plus Config.Peers put the server in cluster mode: all
// members (every replica is configured with the same total set) are
// arranged on a consistent-hash ring with 64 virtual points each. Keyed
// submissions hash by idempotency key to an owner; job IDs embed their
// owner's node token ("3aa01f2c.j17"), so status, events, and reschedule
// requests that land on the wrong replica are forwarded transparently.
// Clients can talk to any member. A forwarded request is served where it
// lands (one hop, loop-proof); an unreachable owner yields 502
// "upstream_unavailable".
//
// # Fault tolerance
//
// With Config.Replicas > 1 the tier survives losing a member outright.
// On accept, the owner synchronously streams the job's persistence
// record — wire documents, idempotency key, reschedule lineage — to its
// Replicas-1 ring successors before the 202 goes out, so every accepted
// job exists on more than one node. A background failure detector
// probes every peer each ProbeInterval; ProbeMisses consecutive misses
// walk the peer alive → suspect → dead (GET /v1/cluster reports the
// state per node). Once an owner is dead, routing sends its references
// to the first live successor, which adopts the replicated pending
// jobs — re-running them from the recipe, byte-identical because every
// scheduler is deterministic — and serves reads for the replicated
// terminal ones. When the owner returns, probes mark it alive again and
// the successors push the terminal records back; idempotency keys and
// first-terminal-wins precedence make reconciliation convergent, never
// a duplicate execution.
//
// Forwarded traffic is guarded by per-peer circuit breakers
// (BreakerThreshold consecutive failures open the circuit; after
// BreakerCooldown a single half-open probe may close it) and bounded by
// ForwardTimeout, so a dead peer sheds load instead of absorbing it.
// Every 503 carries a Retry-After header. Client.WithRetry returns a
// client that retries idempotent requests — GETs and idempotency-keyed
// submissions — on transport errors and 502/503 with exponential
// backoff, full jitter, and the server's Retry-After as the floor;
// Client.Watch reconnects cut SSE streams through the Last-Event-ID
// header without re-delivering views.
//
// The failure modes, what a client observes, and the counter that
// proves each one:
//
//	fault                    client sees                       metric
//	owner dead, replicated   job completes via successor       failovers_total, adopted_jobs_total
//	owner dead, Replicas=1   502 upstream_unavailable          forward_errors_total
//	peer unreachable         502 after breaker opens, instant  breaker_open_total, breaker_short_circuits_total
//	store write fails        503 store_unavailable, no ack     store_errors_total
//	queue full / draining    503 + Retry-After                 jobs_rejected
//	probe misses             /v1/cluster state suspect/dead    probe_failures_total
//	owner returns            keys answer original IDs          reconciles_total
//
// ChaosTransport (an http.RoundTripper) and FaultyStore (a Store
// wrapper) inject seeded, deterministic faults — latency, drops,
// resets, synthesized 503s, write failures — and power the chaos suite
// in tests/ (make chaos-test).
//
// # Metrics
//
// GET /metrics renders the per-server expvar counters:
//
//	jobs_accepted            requests admitted to the queue (sync + async)
//	jobs_in_flight           accepted, not yet terminal
//	jobs_completed           terminal: done
//	jobs_failed              terminal: failed (incl. deadline)
//	jobs_rejected            refused before queueing (4xx/503)
//	evaluations_total        candidate evaluations, all algorithms
//	compile_hits_total       compiles whose graph and system both came
//	                         from the compile cache
//	compile_misses_total     compiles that parsed or built a graph or
//	                         system (failed ones included)
//	reschedules_total        accepted reschedule jobs
//	delta_remove_procs_total delta operations by kind, summed over
//	delta_remove_links_total accepted deltas
//	delta_exec_factors_total
//	delta_comm_factors_total
//	delta_add_tasks_total
//	delta_add_edges_total
//	store_replays_total      pending jobs re-enqueued from the store on boot
//	store_errors_total       store writes that failed
//	forwards_total           requests relayed to their owning replica
//	idempotent_hits_total    keyed submissions answered with an existing job
//	batches_total            batch requests accepted for processing
//	batch_jobs_total         jobs carried inside those batches
//	batch_size_le_1          cumulative batch-size histogram: batches with
//	batch_size_le_4          size <= the bucket bound (le_inf counts all,
//	batch_size_le_16         so bucket differences give the distribution)
//	batch_size_le_64
//	batch_size_le_inf
//	probe_failures_total     failed health probes (detector + /v1/cluster)
//	failovers_total          dead-owner adoptions triggered on this node
//	adopted_jobs_total       replicated pending jobs re-run here
//	replicated_jobs_total    records successfully streamed to successors
//	replication_errors_total replication sends that failed
//	reconciles_total         records reconciled back into this owner
//	breaker_open_total       circuit breakers tripped open
//	breaker_short_circuits_total forwards refused by an open breaker
//	forward_errors_total     forward attempts that reached the wire and failed
//
// Server is the embeddable core; cmd/schedd wraps it with flags, WAL and
// cluster wiring, SIGTERM draining and a listener, plus, when given a
// -debug-addr, a second listener serving net/http/pprof's /debug/pprof/
// profiles and expvar's /debug/vars; cmd/schedctl drives it from the
// command line through Client; cmd/schedload load-tests it.
package service
