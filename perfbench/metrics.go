package main

import "fmt"

// metricDef is one metric of BENCHMARK.json: its name, unit and which
// direction is better.
type metricDef struct {
	name, unit, better string
}

// endToEnd is what a user of each workload sees; every untraced run
// reports all of them. Their meaning per workload is in README.md.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"live_heap_mb", "MB", "lower"},
	{"ok_frac", "fraction", "higher"},
	{"work_per_s", "1/s", "higher"},
	{"p50_ms", "ms", "lower"},
}

// perLayer is what the traced runs report, grouped by the workload that
// measures them; a traced run reports the metrics of other workloads as 0.
var perLayer = append(append(append([]metricDef{
	// Every workload: its end-to-end rate with the program's own
	// recorder attached, for the tracing overhead.
	{"trace.work_per_s", "1/s", "higher"},

	// train-conv, per minibatch unless noted.
	{"sampling.sample_ms_p50", "ms", "lower"},
	{"sampling.sample_ms_tail", "ms", "lower"},
	{"sampling.input_vertices", "count", "lower"},
	{"sampling.sampled_edges", "count", "lower"},
	{"queue.trainer_wait_ms", "ms", "lower"},
	{"nn.compact_ms", "ms", "lower"},
	{"feature.gather_ms", "ms", "lower"},
	{"feature.gather_mb", "MB", "lower"},
	{"feature.hit_rate", "fraction", "higher"},
	{"nn.fwd_bwd_ms", "ms", "lower"},
	{"tensor.step_ms", "ms", "lower"},
	{"train.eval_ms", "ms", "lower"},
	{"train.allocs_per_batch", "count", "lower"},
	{"train.final_loss", "nats", "lower"},
}, serveLayerMetrics()...), []metricDef{
	// serve-zipf, whole ladder.
	{"serve.max_ok_rps", "1/s", "higher"},
	{"serve.replay_sample_ms", "ms", "lower"},
	{"serve.replay_gather_ms", "ms", "lower"},
	{"serve.replay_forward_ms", "ms", "lower"},
}...), []metricDef{
	// sim-sweep-pa, per sweep.
	{"measure.measure_s", "s", "lower"},
	{"measure.sampled_edges", "count", "lower"},
	{"measure.ns_per_scanned_edge", "ns", "lower"},
	{"measure.store_hit_rate", "fraction", "higher"},
	{"core.replay_s", "s", "lower"},
	{"core.build_cache_s", "s", "lower"},
	{"core.probe_cache_s", "s", "lower"},
	{"core.cost_simulate_s", "s", "lower"},
	{"sweep.alloc_mb", "MB", "lower"},
}...)

// serveLayerMetrics lists serve-zipf's per-rate metrics, suffixed .rNNNN.
func serveLayerMetrics() []metricDef {
	perRate := []metricDef{{"loadgen.late_ms_tail", "ms", "lower"}}
	for _, m := range servePhaseFigures {
		m.name = "serve." + m.name
		perRate = append(perRate, m)
	}
	var out []metricDef
	for _, l := range serveLadder {
		for _, m := range perRate {
			m.name = fmt.Sprintf("%s.r%d", m.name, l.rate)
			out = append(out, m)
		}
	}
	return out
}
