package main

// The names below are the benchmark's public surface: BENCHMARK.json at
// the repository root declares the same workloads and metrics, and the
// smoke test fails when the two drift apart.

// metricSpec declares one metric: its name, unit, which direction is
// better and, for end-to-end metrics, the share of the parent's median
// by which it may worsen before a change counts as a regression.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd lists the gated metrics. Every workload reports every one of
// them, so each is defined for every workload: an op is one HTTP
// request, one cold load or one regenerated figure.
var endToEnd = []metricSpec{
	{"setup_s", "s", lower, 0.25},
	{"latency_p50_ms", "ms", lower, 0.25},
	{"latency_p95_ms", "ms", lower, 0.25},
	{"throughput_rps", "1/s", higher, 0.25},
	{"alloc_mb_per_op", "MB", lower, 0.05},
}

// perLayer lists the ungated per-layer metrics of the traced run. A
// workload reports 0 for a rung its requests never pass through.
var perLayer = []metricSpec{
	{"client.http_single_us", "us", lower, 0},
	{"client.http_batch512_us", "us", lower, 0},
	{"client.http_gateway_us", "us", lower, 0},
	{"client.latency_p99_ms", "ms", lower, 0},
	{"client.rows_per_s", "rows/s", higher, 0},
	{"net.self_single_us", "us", lower, 0},
	{"net.self_batch512_us", "us", lower, 0},
	{"gateway.handler_single_us", "us", lower, 0},
	{"gateway.self_single_us", "us", lower, 0},
	{"gateway.route_mean_us", "us", lower, 0},
	{"gateway.retries", "count", lower, 0},
	{"gateway.spills", "count", lower, 0},
	{"gateway.replica_skew", "ratio", lower, 0},
	{"serve.handler_single_us", "us", lower, 0},
	{"serve.handler_batch512_us", "us", lower, 0},
	{"serve.handler_observe32_us", "us", lower, 0},
	{"serve.self_single_us", "us", lower, 0},
	{"serve.self_batch512_us", "us", lower, 0},
	{"serve.codec_ref_single_us", "us", lower, 0},
	{"serve.codec_ref_batch512_us", "us", lower, 0},
	{"serve.coalesce_rows_per_flush", "rows", higher, 0},
	{"serve.predict_hist_mean_us", "us", lower, 0},
	{"serve.model_cache_misses", "count", lower, 0},
	{"serve.allocs_per_req_single", "count", lower, 0},
	{"serve.alloc_kb_per_req_batch512", "kB", lower, 0},
	{"registry.latest_version_us", "us", lower, 0},
	{"registry.predict_row_us", "us", lower, 0},
	{"registry.predict_batch512_us", "us", lower, 0},
	{"registry.load_ms", "ms", lower, 0},
	{"registry.load_self_ms", "ms", lower, 0},
	{"registry.save_ms", "ms", lower, 0},
	{"artifact.read_ms", "ms", lower, 0},
	{"artifact.decode_ms", "ms", lower, 0},
	{"artifact.encode_ms", "ms", lower, 0},
	{"artifact.file_mb", "MB", lower, 0},
	{"artifact.decode_alloc_mb", "MB", lower, 0},
	{"hybrid.predict_row_us", "us", lower, 0},
	{"hybrid.train_ms", "ms", lower, 0},
	{"analytical.predict_ns", "ns", lower, 0},
	{"ml.predict_row_us", "us", lower, 0},
	{"ml.predict_batch512_us", "us", lower, 0},
	{"ml.allocs_per_row", "count", lower, 0},
	{"ml.nodes", "count", lower, 0},
	{"ml.fit_small_ms", "ms", lower, 0},
	{"ml.fit_large_ms", "ms", lower, 0},
	{"experiments.figure_ms.fig3a", "ms", lower, 0},
	{"experiments.figure_ms.fig5", "ms", lower, 0},
	{"experiments.figure_ms.fig6", "ms", lower, 0},
	{"experiments.figure_ms.fig7", "ms", lower, 0},
	{"experiments.figure_ms.fig8", "ms", lower, 0},
	{"experiments.dataset_build_ms", "ms", lower, 0},
	{"experiments.pass_s", "s", lower, 0},
	{"experiments.hybrid_mape_pct", "%", lower, 0},
	{"online.observe32_us", "us", lower, 0},
	{"telemetry.trace_ns", "ns", lower, 0},
	{"telemetry.hist_observe_ns", "ns", lower, 0},
	{"telemetry.scrape_ms", "ms", lower, 0},
	{"runtime.heap_inuse_mb", "MB", lower, 0},
	{"runtime.gc_count", "count", lower, 0},
	{"trace.overhead_pct", "%", lower, 0},
}

// workload is one named set of inputs: why it exists and how to set it
// up. Names are final; later changes cite them.
type workload struct {
	name string
	why  string
	// concurrent workloads run C closed-loop clients; the others are a
	// single caller issuing ops one after another.
	concurrent bool
	warmup     int // ops before the clock starts, by count
	setup      func(e *env) (*fixture, error)
}

var workloads = []workload{
	{"replica_single", "single-row /predict of the paper's hybrid on one replica with lam-serve defaults: the model is under 1% of the request, so coalesce wait, HTTP, JSON and telemetry must move it and the kernel must not",
		true, 2000, setupReplicaSingle},
	{"replica_batch", "512-row /predict batches of a 100-tree extra-trees pipeline: bypasses the coalescer, most handler time is ml traversal, so kernel and layout work shows here and nowhere in replica_single",
		true, 100, setupReplicaBatch},
	{"fleet_mixed", "gateway in front of 2 replicas with the online plane, 8 models, 7:1 /predict to 32-row /observe: the only workload with the proxy hop, multi-model resolve and the write path beside reads",
		true, 2000, setupFleetMixed},
	{"cold_load", "sequential registry.Open + Load + first Predict of the large model: all artifact and registry work, no steady-state serving, where mmap or codec changes land and nowhere else",
		false, 10, setupColdLoad},
	{"paper_figures", "passes over fig3a, fig5, fig6, fig7, fig8 at the paper's settings: the researcher's path and the fit side of ml and hybrid, where a slower Fit or an accuracy loss shows",
		false, 0, setupPaperFigures},
}
