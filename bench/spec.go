package main

// The benchmark's fixed vocabulary. BENCHMARK.json at the repository root
// repeats these names for the driver; bench_test.go fails when the two
// disagree.

// Workload names. Later issues refer to them; do not rename.
const (
	nativeClosed  = "native_closed"
	sessionStream = "session_stream"
	admitOverload = "admit_overload"
	learnCycle    = "learn_cycle"
)

var workloadNames = []string{nativeClosed, sessionStream, admitOverload, learnCycle}

// metricDef describes one reported metric.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

// endToEnd lists the metrics every workload reports with tracing off.
// What part_a/part_b time is fixed per workload (README, "End-to-end
// metrics"): the driver's contract wants one metric list for all
// workloads, so the two per-workload request timings share two names.
//
// Every timing has the widest bound the contract allows. On the shared
// 2-core sizing box the quartile spread of ten runs stays under 7 %, but
// the box itself drifts: two sets of runs 20 minutes apart differed by
// 15 % on every timing, setup_s (same code, same input) included. The
// allocation rows do not depend on the box's speed and keep tight bounds.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"op_tail_ms", "ms", "lower", 0.25},
	{"part_a_p50_ms", "ms", "lower", 0.25},
	{"part_b_p50_ms", "ms", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.05},
	{"kb_per_op", "KB", "lower", 0.05},
	{"live_heap_mb", "MB", "lower", 0.15},
	{"selector_l1", "error", "lower", 0.01},
	{"selector_regret", "error", "lower", 0.01},
}

// tailPercentile is the percentile op_tail_ms reports per workload: the
// highest one that keeps at least ten samples beyond it (see
// supportedTail) in every one-second slice of the HTTP loops, and in the
// `under` phase of admit_overload, of a --seconds 24 run on the 2-core
// sizing box. It is fixed, not chosen per run, so that two runs compare
// the same percentile; each run notes the one its samples support.
var tailPercentile = map[string]float64{
	nativeClosed:  99,
	sessionStream: 95,
	admitOverload: 95,
	learnCycle:    99,
}

func layer(name, unit, better string) metricDef {
	return metricDef{Name: name, Unit: unit, Better: better}
}

// perLayer lists the metrics every workload reports with tracing on. All
// but the trace.*, runtime.*, engine.admit*/queue*/admitted/rejected/
// refused_share and server.reads_per_op/retained rows come from the probe
// suite (probes.go), which is the same on every workload; those rows come
// from the traced window of the workload itself.
var perLayer = []metricDef{
	// The traced window.
	layer("trace.ops_per_s", "1/s", "higher"),
	layer("trace.untraced_ops_per_s", "1/s", "higher"),
	layer("trace.overhead_share", "ratio", "lower"),
	layer("trace.spans", "count", "lower"),
	layer("runtime.gc_cycles", "count", "lower"),
	layer("runtime.gc_pause_ms", "ms", "lower"),
	layer("engine.admitted", "count", "higher"),
	layer("engine.rejected", "count", "lower"),
	layer("engine.refused_share", "ratio", "lower"),
	layer("engine.admit_wait_p50_ms", "ms", "lower"),
	layer("engine.admit_wait_p99_ms", "ms", "lower"),
	layer("engine.queue_wait_p99_ms.lineitem", "ms", "lower"),
	layer("engine.queue_wait_p99_ms.customer", "ms", "lower"),
	layer("server.reads_per_op", "count", "lower"),
	layer("server.retained", "count", "lower"),

	// server: handler spans under a socket, single caller.
	layer("server.submit_us", "us", "lower"),
	layer("server.submit_below_bound_us", "us", "lower"),
	layer("server.read_us", "us", "lower"),
	layer("server.session_open_us", "us", "lower"),
	layer("server.session_open_below_bound_us", "us", "lower"),
	layer("server.observe_us", "us", "lower"),
	layer("server.http_overhead_us", "us", "lower"),

	// engine, qos.
	layer("engine.start_us", "us", "lower"),
	layer("engine.gate_admit_ns", "ns", "lower"),
	layer("qos.enqueue_next_ns", "ns", "lower"),

	// optimizer, pipeline, datagen: set-up cost, cached in steady state.
	layer("datagen.generate_ms", "ms", "lower"),
	layer("optimizer.build_stats_ms", "ms", "lower"),
	layer("optimizer.plan_us", "us", "lower"),
	layer("pipeline.decompose_us", "us", "lower"),

	// exec.
	layer("exec.run_us", "us", "lower"),
	layer("exec.snapshots_per_query", "count", "lower"),
	layer("exec.ns_per_snapshot", "ns", "lower"),

	// monitor.
	layer("monitor.start_us", "us", "lower"),
	layer("monitor.start_to_done_us", "us", "lower"),
	layer("monitor.allocs_per_query", "count", "lower"),
	layer("monitor.kb_per_query", "KB", "lower"),
	layer("monitor.updates_per_query", "count", "lower"),

	// progress, features, selection, mart.
	layer("progress.advance_ns_per_snapshot", "ns", "lower"),
	layer("progress.query_estimate_ns", "ns", "lower"),
	layer("features.online_full_ns", "ns", "lower"),
	layer("selection.pick_online_us", "us", "lower"),
	layer("mart.predict_ns", "ns", "lower"),
	layer("selection.train_ms", "ms", "lower"),
	layer("mart.train_ms_per_model", "ms", "lower"),
	layer("progress.l1.DNE", "error", "lower"),
	layer("progress.l1.TGN", "error", "lower"),
	layer("progress.l1.LUO", "error", "lower"),
	layer("progress.l1.PMAX", "error", "lower"),
	layer("progress.l1.SAFE", "error", "lower"),
	layer("progress.l1.BATCHDNE", "error", "lower"),
	layer("progress.l1.DNESEEK", "error", "lower"),
	layer("progress.l1.TGNINT", "error", "lower"),
	layer("selection.oracle_l1", "error", "lower"),
	layer("selection.best_fixed_l1", "error", "lower"),
	layer("selection.picked_optimal_share", "ratio", "higher"),

	// ingest.
	layer("ingest.decode_spec_us", "us", "lower"),
	layer("ingest.build_us", "us", "lower"),
	layer("ingest.decode_batch_us", "us", "lower"),
	layer("ingest.batch_bytes", "B", "lower"),
	layer("ingest.apply_us", "us", "lower"),
	layer("ingest.finish_us", "us", "lower"),
	layer("ingest.json_share", "ratio", "lower"),
	layer("ingest.snapshots_per_session", "count", "lower"),

	// feedback, workload.
	layer("workload.harvest_trace_us", "us", "lower"),
	layer("feedback.harvest_trace_us", "us", "lower"),
	layer("feedback.append_us_per_example", "us", "lower"),
	layer("feedback.snapshot_cold_ms", "ms", "lower"),
	layer("feedback.snapshot_warm_ms", "ms", "lower"),
	layer("feedback.snapshot_family_ms", "ms", "lower"),
	layer("feedback.open_store_ms", "ms", "lower"),
	layer("feedback.segments", "count", "lower"),
	layer("feedback.examples", "count", "higher"),
	layer("feedback.cache_hit_ratio", "ratio", "higher"),

	// The budget: self time per depth, summing to the op time.
	layer("budget.native.op_us", "us", "lower"),
	layer("budget.native.http_us", "us", "lower"),
	layer("budget.native.server_us", "us", "lower"),
	layer("budget.native.engine_us", "us", "lower"),
	layer("budget.native.monitor_us", "us", "lower"),
	layer("budget.native.progress_us", "us", "lower"),
	layer("budget.native.exec_us", "us", "lower"),
	layer("budget.session.op_us", "us", "lower"),
	layer("budget.session.http_us", "us", "lower"),
	layer("budget.session.server_us", "us", "lower"),
	layer("budget.session.progress_us", "us", "lower"),
	layer("budget.session.ingest_apply_us", "us", "lower"),
	layer("budget.session.ingest_decode_us", "us", "lower"),
}
