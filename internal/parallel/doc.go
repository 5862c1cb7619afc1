// Package parallel is the shared worker-pool substrate behind every
// embarrassingly parallel loop in the repository: per-tree ensemble
// fitting, batch prediction, the cold-load record check and the
// experiment sweeps. It has one loop body, ForCtx; ForBlocksCtx (fn
// over contiguous blocks) and MapCtx (results collected by index) are
// shapes over it.
//
// The contract every caller relies on is that ForCtx(ctx, n, workers,
// fn) calls fn(i) exactly once for every i in [0, n) — unless a unit
// fails or ctx is cancelled, when units past the failure, or not yet
// started, may be skipped — and that callers write results by index, so
// the observable output, and the error (the lowest failing index's),
// are independent of the worker count and of goroutine scheduling.
// Randomised callers must derive each unit's seed from (master seed,
// unit index) before fanning out — never share an RNG across units —
// which keeps parallel runs bit-identical to sequential ones. This
// determinism contract is what lets the serving layer's micro-batch
// coalescer (internal/serve) promise that a coalesced batch response is
// byte-for-byte what each request would have received alone.
//
// A non-positive workers argument means "use the process default"
// (GOMAXPROCS; there is no other process-wide knob), and an effective
// worker count of one runs the loop inline on the calling goroutine,
// so degenerate inputs (empty or single-element ranges, Workers <= 0)
// degrade to plain sequential execution instead of deadlocking. The
// caller returns once no unit is left to claim and every claimed unit
// has finished; a helper that starts after that claims nothing.
//
// Default-inherited loops additionally share one process-wide helper
// budget, so nested fan-out (a sweep over trials, each fitting a
// forest, each fitting trees) keeps total concurrency near the
// default instead of multiplying the levels together.
//
// Cancellation is prompt and between units: a returned cancellation
// error wraps both lamerr.ErrCancelled and the underlying ctx.Err(). A
// nil or Background ctx takes the same body; its nil Done channel makes
// every check fall through.
package parallel
