package main

// agg says how a per-layer metric is reduced from its samples.
type agg int

const (
	// aggMedian: median per call (span durations, sizes per call).
	aggMedian agg = iota
	// aggMean: mean per op (the engine's work counts).
	aggMean
	// aggSum: a single recorded delta (service counters).
	aggSum
	// aggDerived: computed from other metrics.
	aggDerived
)

type layerMetric struct {
	name, unit, better string
	agg                agg
}

// layerCatalog is every per-layer metric the traced run prints, grouped
// by the module whose exported functions it times. A metric whose layer
// is not on a workload's path reads 0 and is reported as n/a.
var layerCatalog = []layerMetric{
	// sched/gen, sched/graph, sched/system
	{"gen.instance_ms", "ms", "lower", aggMedian},
	{"graph.decode_ms", "ms", "lower", aggMedian},
	{"system.decode_ms", "ms", "lower", aggMedian},
	{"system.doc_kb", "KiB", "lower", aggMedian},
	// sched
	{"sched.schedule_ms", "ms", "lower", aggMedian},
	{"sched.reschedule_ms", "ms", "lower", aggMedian},
	{"sched.delta_apply_ms", "ms", "lower", aggMedian},
	{"sched.validate_ms", "ms", "lower", aggMedian},
	{"sched.verify_ms", "ms", "lower", aggMedian},
	{"sched.marshal_ms", "ms", "lower", aggMedian},
	{"sched.schedule_kb", "KiB", "lower", aggMedian},
	// internal/core: stages
	{"core.select_pivot_ms", "ms", "lower", aggMedian},
	{"core.serialize_ms", "ms", "lower", aggMedian},
	{"core.migrate_ms", "ms", "lower", aggDerived},
	// internal/core: work counts per op
	{"core.evaluations", "count", "lower", aggMean},
	{"core.migrations", "count", "lower", aggMean},
	{"core.reverted", "count", "lower", aggMean},
	{"core.sweeps", "count", "lower", aggMean},
	{"core.rebuilds", "count", "lower", aggMean},
	{"core.placements", "count", "lower", aggMean},
	{"core.msg_placements", "count", "lower", aggMean},
	{"core.cache_hits", "count", "higher", aggMean},
	{"core.cache_partials", "count", "lower", aggMean},
	{"core.cache_misses", "count", "lower", aggMean},
	{"core.dirty_tasks", "count", "lower", aggMean},
	// internal/core: useful work over attempts
	{"core.cache_hit_ratio", "ratio", "higher", aggDerived},
	{"core.keep_ratio", "ratio", "higher", aggDerived},
	{"core.spec_useful_ratio", "ratio", "higher", aggDerived},
	// sched/service
	{"service.schedule.roundtrip_ms", "ms", "lower", aggMedian},
	{"service.schedule.handler_ms", "ms", "lower", aggMedian},
	{"service.submit.roundtrip_ms", "ms", "lower", aggMedian},
	{"service.submit.handler_ms", "ms", "lower", aggMedian},
	{"service.batch.roundtrip_ms", "ms", "lower", aggMedian},
	{"service.batch.handler_ms", "ms", "lower", aggMedian},
	{"service.reschedule.roundtrip_ms", "ms", "lower", aggMedian},
	{"service.reschedule.handler_ms", "ms", "lower", aggMedian},
	{"service.events.roundtrip_ms", "ms", "lower", aggMedian},
	{"service.events.handler_ms", "ms", "lower", aggMedian},
	{"service.run_ms", "ms", "lower", aggMedian},
	{"service.wire_ms", "ms", "lower", aggMedian},
	{"service.queue_wait_ms", "ms", "lower", aggMedian},
	{"service.store_put_ms", "ms", "lower", aggMedian},
	{"service.store_finish_ms", "ms", "lower", aggMedian},
	{"service.request_kb", "KiB", "lower", aggMedian},
	{"service.response_kb", "KiB", "lower", aggMedian},
	{"service.jobs_accepted", "count", "higher", aggSum},
	{"service.jobs_completed", "count", "higher", aggSum},
	{"service.jobs_failed", "count", "lower", aggSum},
	{"service.jobs_rejected", "count", "lower", aggSum},
	// the benchmark's own tracing
	{"trace.overhead_share", "share", "lower", aggDerived},
}

// Sample names the derived metrics are computed from.
const (
	specW1      = "core.evaluations_w1"
	specDefault = "core.evaluations_default"
)

// coreCounts maps the engine's Result.Stats keys to their metrics.
var coreCounts = []struct{ stat, metric string }{
	{"evaluations", "core.evaluations"},
	{"migrations", "core.migrations"},
	{"reverted", "core.reverted"},
	{"sweeps", "core.sweeps"},
	{"rebuilds", "core.rebuilds"},
	{"placements", "core.placements"},
	{"msg_placements", "core.msg_placements"},
	{"cache_hits", "core.cache_hits"},
	{"cache_partials", "core.cache_partials"},
	{"cache_misses", "core.cache_misses"},
	{"dirty_tasks", "core.dirty_tasks"},
}

// traceStats records one result's engine counters.
func traceStats(tr *recorder, stats map[string]float64) {
	for _, c := range coreCounts {
		tr.add(c.metric, stats[c.stat])
	}
}

// perLayer reduces the traced run's samples to the per-layer metrics
// (all but trace.overhead_share, which needs the untraced phase).
func perLayer(tr *recorder, tph *phase) map[string]float64 {
	out := make(map[string]float64)
	for _, m := range layerCatalog {
		switch m.agg {
		case aggMedian:
			out[m.name] = median(tr.get(m.name))
		case aggMean:
			out[m.name] = mean(tr.get(m.name))
		case aggSum:
			out[m.name] = tr.sum(m.name)
		}
	}
	if len(tr.get("sched.schedule_ms")) > 0 {
		out["core.migrate_ms"] = out["sched.schedule_ms"] - out["core.select_pivot_ms"] - out["core.serialize_ms"]
	}
	hits, partials, misses := tr.sum("core.cache_hits"), tr.sum("core.cache_partials"), tr.sum("core.cache_misses")
	out["core.cache_hit_ratio"] = ratio(hits, hits+partials+misses)
	migr, rev := tr.sum("core.migrations"), tr.sum("core.reverted")
	out["core.keep_ratio"] = ratio(migr, migr+rev)
	out["core.spec_useful_ratio"] = ratio(tr.sum(specW1), tr.sum(specDefault))
	return out
}
