// Package telemetry is the shared observability plane: one metric
// registry, one trace model and one logging convention used by every
// daemon in the repository (lam-serve, lam-gateway and the tools that
// drive them).
//
// # Metrics
//
// A Registry holds counters, gauges and fixed-bucket duration
// histograms behind an allocation-free API. Handles are resolved once,
// at registration time (Registry.Counter and friends are get-or-create
// on the full name + label set); the hot path then performs plain
// atomic adds on the returned handle — no map lookups, no allocation,
// no locks. Registration is the slow path and may be called lazily
// (e.g. per loaded model version) because it is idempotent.
//
// The registry exposes the Prometheus text format via Handler /
// WriteExposition: families sorted by name, series sorted by label
// signature, histogram buckets cumulative with a terminal +Inf, and a
// strict in-repo parser (ParseExposition) that the test suites of both
// daemons run against live scrapes. The text exposition is the only
// /metrics format (the transitional ?format=json document is gone).
//
// Every duration histogram shares one bucket ladder
// (LatencyBucketBoundsNs, 0.25µs..1s in 4x steps plus +Inf) so serve
// and gateway latencies are directly comparable — the ladder is
// defined exactly once, here.
//
// # Tracing
//
// A Trace carries a 128-bit ID minted at the edge or adopted from the
// X-Lam-Trace header (TraceHeader), so a gateway hop and the replica
// hop it proxies to join one logical trace. Spans (admission wait,
// coalesce queue, artifact load, predict, …) are recorded into the
// trace by the request path via context (WithTrace / StartSpan) and
// are cheap: an open span is a value, and ending it is one append under
// the trace's own mutex into storage the trace holds inline, bounded by
// maxSpans. A Recorder keeps the most recent finished traces in a
// bounded ring served as JSON at GET /trace/recent; Finish overwrites a
// slot in place and Recent copies slots out, so a traced request
// allocates its Trace and nothing else. The Recorder also logs the full
// span list of any trace slower than its Slow threshold through its
// slog.Logger — the "-trace-slow" flag of the daemons.
//
// All tracing entry points are nil-safe: a nil *Recorder mints nil
// *Trace values whose span methods no-op, so library code instruments
// unconditionally and embedders that want no tracing pay almost
// nothing.
//
// # Logging
//
// NewLogger builds the daemons' slog.Logger ("-log-format text|json").
// Request-scoped log lines carry trace_id, model and version so a log
// line, a metric series and a trace record can be joined on the same
// keys.
package telemetry
