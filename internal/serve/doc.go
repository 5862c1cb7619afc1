// Package serve is the HTTP prediction service behind cmd/lam-serve:
// a JSON API that loads trained models from a registry
// (internal/registry) and answers single and batched prediction
// requests bit-identical to the equivalent library calls — the handler
// funnels every request through the same registry.Model batch path the
// library exposes, so there is exactly one prediction code path.
//
// Endpoints:
//
//	GET  /healthz  — liveness: {"status":"ok","models":N}
//	GET  /models   — every stored model version's metadata
//	GET  /metrics  — request/coalesce/shed/cache/swap counters and the
//	                 /predict latency histogram (+ online-plane
//	                 counters when attached), flat JSON
//	POST /predict  — {"model":"name","version":2,"x":[…]} or
//	                 {"model":"name","batch":[[…],[…]]}
//
// With an online adaptation plane attached (AttachOnline; lam-serve
// -online):
//
//	POST /observe              — ground-truth ingest: {"model":…,
//	                             "x":[…],"y":0.12} or {"model":…,
//	                             "batch":[[…]],"y_batch":[…]}
//	GET  /models/{name}/drift  — the model's sliding-window accuracy,
//	                             detector and retrain state
//
// The /predict and /observe bodies and the /predict answer go through
// the wire codec (internal/wire): request rows are scanned straight
// into one flat block, pooled for /predict and released once the
// answer is written and shadow-scored, and the answer is encoded into
// the same pooled memory and written with an exact Content-Length, so a
// /predict allocates nothing per row. Every body gets the status and
// error text encoding/json would give it, and the answer carries
// encoding/json's float bytes; a prediction that is not finite is a 400
// naming its row.
//
// # Throughput plane
//
// Two optional layers sit in front of the prediction path; both are
// configured on Server before Handler is called and both default off.
//
// Micro-batch coalescing (CoalesceConfig) is work-conserving: a
// single-row /predict request that finds its loaded model idle is
// scored at once, on its own goroutine and context, exactly as an
// uncoalesced request would be; requests that arrive while a score for
// the same model is running queue behind it and are scored together —
// at most MaxBatch rows per batch, by one drain goroutine per busy
// period — as soon as it finishes, then fanned back out. Nothing waits
// on a clock: a request waits for at most the flush in progress plus
// its own batch's, and batches form only when there is contention to
// amortise, so a mean flush size of 1 at low concurrency is the healthy
// reading. Because batch prediction is bit-identical to row-at-a-time
// prediction for every estimator in this repository (the
// internal/parallel and internal/ml determinism contract), a coalesced
// response is byte-for-byte the response the request would have
// received alone. If a batch fails, rows are re-scored individually so
// a malformed row returns its own error and never poisons batch-mates.
// Measured against per-request serving and the timer-window coalescer
// this replaced: EXPERIMENTS.md, "Work-conserving coalescer".
//
// Admission control (AdmitConfig): at most MaxInflight /predict
// requests execute concurrently, at most Queue more wait for a slot,
// and everything beyond is shed immediately with 429 + Retry-After —
// never a wrong or late answer. Queue depth, its high-water mark, and
// the shed count are exported via /metrics.
//
// The request context is threaded into the batch predictor, so a
// dropped client connection cancels the in-flight prediction between
// rows (a row queued in the coalescer is the exception: its flush
// completes on a background context so batch-mates are unaffected, and
// only the wait is abandoned). One resolver (resolve.go) decides which
// loaded model answers a request. "Latest" requests are served through
// a per-name atomic model pointer: a newly published version — whether
// written by an external process or republished by the online plane's
// retrainer — is swapped in without any lock on the predict path, so
// in-flight requests finish on the old compiled ensemble while new
// requests get the new one, and the served version never moves
// backwards. Each request re-resolves the newest version through
// registry.LatestVersion, which costs one fstat of two held directory
// handles unless something changed, so another process's publish is
// served from the next request on (local filesystems; see that
// method). Version-pinned requests go through a small bounded cache.
package serve
