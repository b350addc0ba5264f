package main

// metricDef names one reported metric. BENCHMARK.json lists the same
// names, units and directions (a test keeps the two in step); the bounds
// live only in BENCHMARK.json.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
}

// endToEnd are the metrics a user of the service sees. Every workload
// reports every one of them.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"alloc_kb_per_op", "kB", "lower"},
	{"mrr", "ratio", "higher"},
}

// perLayer are the single-layer metrics, named after the module they
// measure. *_us are mean self time per request from the traced replay;
// the others are deltas of the layers' public Stats() over the untraced
// timed phase, counts from the trace, or offline timings of one layer's
// public entry points over what the trace recorded. A metric that does
// not apply to a workload (shard.* on a local engine) reports 0.
var perLayer = []metricDef{
	// client: latency and failure metrics too noisy on this sandbox, or too
	// often zero, to carry a bound.
	{"client.search_p50_ms", "ms", "lower"},
	{"client.search_p95_ms", "ms", "lower"},
	{"client.search_p99_ms", "ms", "lower"},
	{"client.insert_p50_ms", "ms", "lower"},
	{"client.insert_p95_ms", "ms", "lower"},
	{"client.error_rate", "ratio", "lower"},

	{"serve.http_self_us", "us", "lower"},
	{"serve.self_us", "us", "lower"},
	{"serve.queue_wait_us_per_req", "us", "lower"},
	{"serve.exec_us_per_req", "us", "lower"},
	{"serve.coalesced_ratio", "ratio", "higher"},
	{"serve.resp_bytes_per_req", "B", "lower"},
	{"serve.rows_per_req", "count", "lower"},
	{"serve.rejected", "count", "lower"},

	{"core.forward_us", "us", "lower"},
	{"core.backward_us", "us", "lower"},
	{"core.explain_self_us", "us", "lower"},
	{"core.configs_per_req", "count", "lower"},
	{"core.interps_per_req", "count", "lower"},
	{"core.probes_per_req", "count", "lower"},
	{"core.source_calls_per_req", "count", "lower"},
	{"core.cache_hit_ratio", "ratio", "higher"},

	{"sql.exec_us_per_req", "us", "lower"},
	{"sql.parse_us_per_stmt", "us", "lower"},
	{"sql.plan_us_per_stmt", "us", "lower"},
	{"sql.stmts_per_req", "count", "lower"},
	{"sql.plan_cache_hit_ratio", "ratio", "higher"},
	{"sql.full_scans_per_req", "count", "lower"},
	{"sql.index_scans_per_req", "count", "lower"},

	{"relational.stats_full_rebuilds", "count", "lower"},
	{"relational.stats_incremental_per_insert", "count", "lower"},
	{"relational.sorted_index_rebuilds", "count", "lower"},

	{"shard.self_us", "us", "lower"},
	{"shard.fragments_per_req", "count", "lower"},
	{"shard.exists_probes_per_req", "count", "lower"},
	{"shard.rows_shipped_per_req", "count", "lower"},
	{"shard.pruned_ratio", "ratio", "higher"},
	{"shard.exists_short_circuit_ratio", "ratio", "higher"},
	{"shard.straggler_ratio", "ratio", "lower"},

	{"transport.self_us", "us", "lower"},
	{"transport.ops_per_req", "count", "lower"},
	{"transport.bytes_per_req", "B", "lower"},
	{"transport.columnar_frames_per_req", "count", "lower"},
	{"transport.encode_us_per_krow", "us", "lower"},
	{"transport.decode_us_per_krow", "us", "lower"},
	{"transport.retries", "count", "lower"},
	{"transport.hedges", "count", "lower"},
	{"transport.dials", "count", "lower"},
	{"transport.insert_us", "us", "lower"},
	{"transport.repl_acks_per_insert", "count", "higher"},

	{"wal.commit_wait_us_per_append", "us", "lower"},
	{"wal.fsyncs_per_append", "count", "lower"},
	{"wal.bytes_per_append", "B", "lower"},
	{"wal.batch_max", "count", "higher"},
	{"wal.append_us", "us", "lower"},

	{"trace.overhead_ratio", "ratio", "lower"},
	{"trace.waterfall_residual_ratio", "ratio", "lower"},
}

// metricValue is one reported number, in the shape the result line uses.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet maps metric names to values for one list of definitions.
type metricSet map[string]metricValue

func newMetricSet(defs []metricDef) metricSet {
	m := make(metricSet, len(defs))
	for _, d := range defs {
		m[d.name] = metricValue{Unit: d.unit}
	}
	return m
}

// set stores a value under a defined name; an undefined name is a bug in
// the benchmark itself.
func (m metricSet) set(name string, v float64) {
	mv, ok := m[name]
	if !ok {
		panic("benchmark: undefined metric " + name)
	}
	mv.Value = v
	m[name] = mv
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
