package main

import "fmt"

// metricSpec declares one metric as BENCHMARK.json does: its name, its unit
// and which direction is better. The benchmark's own test checks that these
// tables and BENCHMARK.json agree.
type metricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd lists what a user of the system sees, printed by every untraced
// run of every workload. A "job" is one request whose report the user waits
// for: one experiments.Sweep call plus its rendering on the sweep workloads,
// one Submit → Wait → Report round trip on the service workloads.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"sim_minsts_per_s", "Minsts/s", "higher"},
	{"jobs_per_s", "1/s", "higher"},
	{"job_p50_ms", "ms", "lower"},
	{"job_tail_ms", "ms", "lower"},
	{"rss_p50_mb", "MB", "lower"},
}

// perLayer lists the single-layer metrics printed by every traced run; the
// README maps each to the end-to-end metric and workload it should move.
var perLayer = []metricSpec{
	{"workload.generate_s", "s", "lower"},
	{"emu.record_s", "s", "lower"},
	{"emu.insts", "count", "higher"},
	{"emu.minsts_per_s", "Minsts/s", "higher"},
	{"traceio.decode_s", "s", "lower"},
	{"traceio.decode_mb_per_s", "MB/s", "higher"},
	{"traceio.bytes", "bytes", "lower"},
	{"pipeline.meta_s", "s", "lower"},
	{"pipeline.batch_s", "s", "lower"},
	{"pipeline.batch_minsts_per_s", "Minsts/s", "higher"},
	{"pipeline.scalar_s", "s", "lower"},
	{"pipeline.scalar_minsts_per_s", "Minsts/s", "higher"},
	{"pipeline.ns_per_cycle", "ns", "lower"},
	{"pipeline.allocs_per_kinst", "allocs/kinst", "lower"},
	{"pipeline.sim_cycles", "count", "lower"},
	{"pipeline.sim_insts", "count", "higher"},
	{"pipeline.flushes", "count", "lower"},
	{"svw.reexecutions", "count", "lower"},
	{"bypass.mispredictions", "count", "lower"},
	{"experiments.sweep_s", "s", "lower"},
	{"experiments.overhead_s", "s", "lower"},
	{"experiments.render_s", "s", "lower"},
	{"experiments.checkpoint_bytes", "bytes", "lower"},
	{"experiments.batched_pair_frac", "frac", "higher"},
	{"simserver.submit_ms_p50", "ms", "lower"},
	{"simserver.report_ms_p50", "ms", "lower"},
	{"simserver.notify_ms_p50", "ms", "lower"},
	{"simserver.queue_wait_ms_p50", "ms", "lower"},
	{"simserver.run_ms_p50", "ms", "lower"},
	{"simserver.wal_append_ms_mean", "ms", "lower"},
	{"simserver.wal_appends", "count", "lower"},
	{"simserver.cache_lookup_ms_mean", "ms", "lower"},
	{"simserver.cache_hit_ratio", "frac", "higher"},
	{"simserver.deduped", "count", "higher"},
	{"simworker.lease_ms_mean", "ms", "lower"},
	{"simworker.shard_ms_p50", "ms", "lower"},
	{"simworker.merge_ms_p50", "ms", "lower"},
	{"simworker.tasks", "count", "higher"},
	{"simworker.requeued_frac", "frac", "lower"},
	{"host.cpu_s", "s", "lower"},
	{"host.minor_faults", "count", "lower"},
	{"host.gc_cycles", "count", "lower"},
	{"host.alloc_mb", "MB", "lower"},
	{"host.peak_rss_mb", "MB", "lower"},
	{"trace.overhead_pct", "%", "lower"},
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// collect picks the declared metrics out of values, in declaration order.
// A declared metric the run did not compute is a bug in the harness.
func collect(specs []metricSpec, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(specs))
	for _, m := range specs {
		v, ok := values[m.Name]
		if !ok {
			return nil, fmt.Errorf("harness computed no value for metric %s", m.Name)
		}
		out[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	return out, nil
}
