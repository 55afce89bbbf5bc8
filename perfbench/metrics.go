package main

// MetricDef names one reported metric. The tables below must match the
// end_to_end and per_layer lists of BENCHMARK.json (TestMetricTables
// checks it).
type MetricDef struct {
	Name, Unit, Better string
}

// e2eMetrics are printed by every untraced run. Each workload fills
// every one; see BENCHMARK.json for what each means per workload.
var e2eMetrics = []MetricDef{
	{"setup_s", "s", "lower"},
	{"heap_peak_mb", "MB", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"lat_p50_ms", "ms", "lower"},
	{"lat_p90_ms", "ms", "lower"},
	{"sim_cycles_per_decode", "cycles", "lower"},
	{"logical_error_rate", "frac", "lower"},
}

// layerMetrics are printed by every traced run; a layer the workload
// leaves idle reads 0.
var layerMetrics = []MetricDef{
	{"sfq.host_ns_per_decode", "ns", "lower"},
	{"sfq.decodes", "count", "higher"},
	{"sfq.sim_cycles_p99", "cycles", "lower"},
	{"sfq.retry_frac", "frac", "lower"},
	{"sfq.unresolved_frac", "frac", "lower"},
	{"surface.host_ns_per_trial", "ns", "lower"},
	{"surface.self_ns_per_trial", "ns", "lower"},
	{"mc.trial_ns_p50", "ns", "lower"},
	{"mc.trial_ns_p99", "ns", "lower"},
	{"mc.busy_frac", "frac", "higher"},
	{"sched.steals", "count", "lower"},
	{"sched.parks", "count", "lower"},
	{"twolevel.esc_frac", "frac", "lower"},
	{"decodepool.mwpm_ns_p50", "ns", "lower"},
	{"decodepool.mwpm_ns_p99", "ns", "lower"},
	{"decodepool.mwpm_share", "frac", "lower"},
	{"client.gen_lag_ms_p99", "ms", "lower"},
	{"client.dispatch_ms_p99", "ms", "lower"},
	{"client.lat_ms_p99", "ms", "lower"},
	{"client.rtt_ms_p50", "ms", "lower"},
	{"client.rtt_ms_p99", "ms", "lower"},
	{"client.flush_batch", "req/flush", "higher"},
	{"client.unattributed_ms_mean", "ms", "lower"},
	{"client.ok_frac", "frac", "higher"},
	{"client.fail_frac", "frac", "lower"},
	{"serve.queue_wait_ms_p99", "ms", "lower"},
	{"serve.sched_wait_ms_mean", "ms", "lower"},
	{"serve.coalesce_ms_p99", "ms", "lower"},
	{"serve.decode_ms_p99", "ms", "lower"},
	{"serve.resp_write_ms_p99", "ms", "lower"},
	{"serve.escalate_wait_ms_p99", "ms", "lower"},
	{"serve.escalate_ms_p99", "ms", "lower"},
	{"serve.batch_lanes_mean", "lanes", "higher"},
	{"serve.esc_frac", "frac", "lower"},
	{"serve.esc_drop_frac", "frac", "lower"},
	{"serve.shed_frac", "frac", "lower"},
	{"serve.sojourn_drop_frac", "frac", "lower"},
	{"trace_overhead_frac", "frac", "lower"},
}

// metricUnit looks a metric's unit up in either table.
func metricUnit(name string) (string, bool) {
	for _, tab := range [][]MetricDef{e2eMetrics, layerMetrics} {
		for _, m := range tab {
			if m.Name == name {
				return m.Unit, true
			}
		}
	}
	return "", false
}
