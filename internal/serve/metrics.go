package serve

import (
	"lam/internal/telemetry"
)

// Metrics is the server's counter set. Every field is a handle into
// the server's telemetry.Registry, resolved once at construction: the
// predict hot path increments them lock-free and allocation-free, and
// GET /metrics renders the same slots as Prometheus text.
type Metrics struct {
	// PredictRequests counts POST /predict requests (single and batch).
	PredictRequests *telemetry.Counter
	// PredictBatchRequests counts the batched subset.
	PredictBatchRequests *telemetry.Counter
	// PredictRows counts scored rows across single and batch requests.
	PredictRows *telemetry.Counter
	// PredictErrors counts /predict requests answered with an error.
	// Shed requests (429) are deliberate and counted in Shed instead.
	PredictErrors *telemetry.Counter
	// PredictLatency is the /predict wall-time histogram
	// (decode→encode), on the shared telemetry bucket ladder.
	PredictLatency *telemetry.Histogram
	// ObserveRequests / ObserveRows mirror the ingest endpoint.
	ObserveRequests *telemetry.Counter
	ObserveRows     *telemetry.Counter
	ObserveErrors   *telemetry.Counter
	// ModelCacheHits / Misses count resolved-model lookups served from
	// memory vs. loaded from disk (latest pointer and pinned cache).
	ModelCacheHits   *telemetry.Counter
	ModelCacheMisses *telemetry.Counter
	// ModelCacheEvictions counts pinned-cache evictions.
	ModelCacheEvictions *telemetry.Counter
	// ModelSwaps counts latest-pointer replacements — each is one hot
	// swap of a newly published version.
	ModelSwaps *telemetry.Counter

	// CoalescedRequests counts single-row /predict requests that went
	// through the micro-batch coalescer (every single when coalescing
	// is on).
	CoalescedRequests *telemetry.Counter
	// CoalesceFlushes counts scored batches, a lone request's solo score
	// included as a flush of one; CoalesceRows the rows in them.
	// CoalesceRows / CoalesceFlushes is the mean flush size: 1 when no
	// request ever found its model busy, above 1 in proportion to how
	// much same-model contention is being amortised.
	CoalesceFlushes *telemetry.Counter
	CoalesceRows    *telemetry.Counter
	// CoalesceMaxFlush is the largest flush observed; it can never
	// exceed the configured MaxBatch.
	CoalesceMaxFlush *telemetry.Gauge

	// Shed counts requests rejected with 429 because both the in-flight
	// budget and the wait queue were full.
	Shed *telemetry.Counter
	// QueueDepth is the live number of requests waiting for an
	// in-flight slot; QueuePeakDepth its high-water mark. The depth can
	// never exceed the configured Queue.
	QueueDepth     *telemetry.Gauge
	QueuePeakDepth *telemetry.Gauge
}

// newMetrics registers every serve-level family on reg and returns the
// resolved handles.
func newMetrics(reg *telemetry.Registry) Metrics {
	return Metrics{
		PredictRequests:      reg.Counter("lam_predict_requests_total", "POST /predict requests (single and batch)"),
		PredictBatchRequests: reg.Counter("lam_predict_batch_requests_total", "Batched /predict requests"),
		PredictRows:          reg.Counter("lam_predict_rows_total", "Rows scored across single and batch /predict requests"),
		PredictErrors:        reg.Counter("lam_predict_errors_total", "/predict requests answered with an error (429 sheds counted separately)"),
		PredictLatency:       reg.Histogram("lam_predict_latency_seconds", "/predict wall time, decode to encode"),
		ObserveRequests:      reg.Counter("lam_observe_requests_total", "POST /observe requests"),
		ObserveRows:          reg.Counter("lam_observe_rows_total", "Observations ingested"),
		ObserveErrors:        reg.Counter("lam_observe_errors_total", "/observe requests answered with an error"),
		ModelCacheHits:       reg.Counter("lam_model_cache_hits_total", "Model resolutions served from memory"),
		ModelCacheMisses:     reg.Counter("lam_model_cache_misses_total", "Model resolutions that loaded from disk"),
		ModelCacheEvictions:  reg.Counter("lam_model_cache_evictions_total", "Pinned-cache evictions"),
		ModelSwaps:           reg.Counter("lam_model_swaps_total", "Hot swaps of a newly published version into the latest pointer"),
		CoalescedRequests:    reg.Counter("lam_coalesced_requests_total", "Single-row /predict requests that went through the coalescer"),
		CoalesceFlushes:      reg.Counter("lam_coalesce_flushes_total", "Coalesced batches scored"),
		CoalesceRows:         reg.Counter("lam_coalesce_rows_total", "Rows scored inside coalesced batches"),
		CoalesceMaxFlush:     reg.Gauge("lam_coalesce_max_flush", "Largest coalesced flush observed"),
		Shed:                 reg.Counter("lam_shed_total", "Requests rejected 429: in-flight and queue budgets exhausted"),
		QueueDepth:           reg.Gauge("lam_queue_depth", "Requests currently waiting for an in-flight slot"),
		QueuePeakDepth:       reg.Gauge("lam_queue_peak_depth", "High-water mark of the admission wait queue"),
	}
}

// modelTelemetry is the per-(model, version) labeled series bundle,
// resolved once per loaded model and cached keyed by the loaded
// *registry.Model — a pointer-keyed sync.Map lookup, so the hot path
// pays no per-request allocation for labels.
type modelTelemetry struct {
	ok   *telemetry.Counter
	err  *telemetry.Counter
	rows *telemetry.Counter
}
