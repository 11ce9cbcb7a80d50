package service

import (
	"expvar"

	"repro/sched"
)

// metrics is the server's counter set. The fields are expvar vars but
// deliberately not registered in the process-global expvar namespace —
// each Server owns its own set, so tests (and embeddings) can run many
// servers in one process without Publish collisions. GET /metrics renders
// them with expvar's own encoding; cmd/schedd additionally publishes the
// map globally so /debug/vars integrations keep working.
type metrics struct {
	vars *expvar.Map

	JobsAccepted  *expvar.Int // requests admitted to the queue (sync + async)
	JobsInFlight  *expvar.Int // accepted, not yet terminal
	JobsCompleted *expvar.Int // terminal: done
	JobsFailed    *expvar.Int // terminal: failed (incl. deadline)
	JobsRejected  *expvar.Int // refused before queueing (4xx/503)

	// Candidate evaluations, summed over every completed run.
	Evaluations *expvar.Int

	// Compile cache: compiles whose graph and system both came from the
	// server's compile cache, and compiles that parsed or built either of
	// them (including ones that then failed validation).
	CompileHits   *expvar.Int
	CompileMisses *expvar.Int

	// Reschedule intake: accepted reschedule jobs, plus per-kind delta
	// operation counts summed over every accepted delta.
	Reschedules      *expvar.Int
	DeltaRemoveProcs *expvar.Int
	DeltaRemoveLinks *expvar.Int
	DeltaExecFactors *expvar.Int
	DeltaCommFactors *expvar.Int
	DeltaAddTasks    *expvar.Int
	DeltaAddEdges    *expvar.Int

	// Persistence and cluster traffic.
	StoreReplays   *expvar.Int // pending jobs re-enqueued from the store on boot
	StoreErrors    *expvar.Int // store writes that failed
	Forwards       *expvar.Int // requests relayed to their owning replica
	IdempotentHits *expvar.Int // keyed submissions answered with an existing job

	// Fault tolerance: replication, failure detection, failover and the
	// circuit breakers guarding inter-replica traffic.
	ProbeFailures        *expvar.Int // failure-detector probes that missed
	Failovers            *expvar.Int // peer deaths this node took over for
	AdoptedJobs          *expvar.Int // replicated pending jobs re-run after an owner death
	ReplicatedJobs       *expvar.Int // job records successfully streamed to a successor
	ReplicationErrors    *expvar.Int // replication sends that failed (best-effort)
	Reconciles           *expvar.Int // records reconciled with a returned owner
	BreakerOpens         *expvar.Int // circuit breakers tripped open
	BreakerShortCircuits *expvar.Int // forwards refused by an open breaker
	ForwardErrors        *expvar.Int // forwards that reached the wire and failed

	// Batch intake: batch requests, jobs they carried, and a cumulative
	// batch-size histogram (le buckets, Prometheus-style: each counts
	// batches of size <= its bound).
	Batches    *expvar.Int
	BatchJobs  *expvar.Int
	BatchLe1   *expvar.Int
	BatchLe4   *expvar.Int
	BatchLe16  *expvar.Int
	BatchLe64  *expvar.Int
	BatchLeInf *expvar.Int
}

func newMetrics() *metrics {
	m := &metrics{vars: new(expvar.Map).Init()}
	for _, v := range []struct {
		name string
		dst  **expvar.Int
	}{
		{"jobs_accepted", &m.JobsAccepted},
		{"jobs_in_flight", &m.JobsInFlight},
		{"jobs_completed", &m.JobsCompleted},
		{"jobs_failed", &m.JobsFailed},
		{"jobs_rejected", &m.JobsRejected},
		{"evaluations_total", &m.Evaluations},
		{"compile_hits_total", &m.CompileHits},
		{"compile_misses_total", &m.CompileMisses},
		{"reschedules_total", &m.Reschedules},
		{"delta_remove_procs_total", &m.DeltaRemoveProcs},
		{"delta_remove_links_total", &m.DeltaRemoveLinks},
		{"delta_exec_factors_total", &m.DeltaExecFactors},
		{"delta_comm_factors_total", &m.DeltaCommFactors},
		{"delta_add_tasks_total", &m.DeltaAddTasks},
		{"delta_add_edges_total", &m.DeltaAddEdges},
		{"store_replays_total", &m.StoreReplays},
		{"store_errors_total", &m.StoreErrors},
		{"forwards_total", &m.Forwards},
		{"idempotent_hits_total", &m.IdempotentHits},
		{"probe_failures_total", &m.ProbeFailures},
		{"failovers_total", &m.Failovers},
		{"adopted_jobs_total", &m.AdoptedJobs},
		{"replicated_jobs_total", &m.ReplicatedJobs},
		{"replication_errors_total", &m.ReplicationErrors},
		{"reconciles_total", &m.Reconciles},
		{"breaker_open_total", &m.BreakerOpens},
		{"breaker_short_circuits_total", &m.BreakerShortCircuits},
		{"forward_errors_total", &m.ForwardErrors},
		{"batches_total", &m.Batches},
		{"batch_jobs_total", &m.BatchJobs},
		{"batch_size_le_1", &m.BatchLe1},
		{"batch_size_le_4", &m.BatchLe4},
		{"batch_size_le_16", &m.BatchLe16},
		{"batch_size_le_64", &m.BatchLe64},
		{"batch_size_le_inf", &m.BatchLeInf},
	} {
		i := new(expvar.Int)
		*v.dst = i
		m.vars.Set(v.name, i)
	}
	return m
}

// observeBatch counts one batch request of n jobs into the totals and
// the cumulative size histogram.
func (m *metrics) observeBatch(n int) {
	m.Batches.Add(1)
	m.BatchJobs.Add(int64(n))
	if n <= 1 {
		m.BatchLe1.Add(1)
	}
	if n <= 4 {
		m.BatchLe4.Add(1)
	}
	if n <= 16 {
		m.BatchLe16.Add(1)
	}
	if n <= 64 {
		m.BatchLe64.Add(1)
	}
	m.BatchLeInf.Add(1)
}

// observeDelta counts one accepted reschedule and its delta's operations
// by kind.
func (m *metrics) observeDelta(d sched.Delta) {
	m.Reschedules.Add(1)
	m.DeltaRemoveProcs.Add(int64(len(d.RemoveProcs())))
	m.DeltaRemoveLinks.Add(int64(len(d.RemoveLinks())))
	m.DeltaExecFactors.Add(int64(len(d.ExecFactors())))
	m.DeltaCommFactors.Add(int64(len(d.CommFactors())))
	m.DeltaAddTasks.Add(int64(len(d.AddTasks())))
	m.DeltaAddEdges.Add(int64(len(d.AddEdges())))
}

// observe folds one finished result into the aggregate counters.
func (m *metrics) observe(res *sched.Result) {
	if res == nil {
		return
	}
	m.Evaluations.Add(int64(res.Stats.Get("evaluations")))
}
