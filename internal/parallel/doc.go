// Package parallel is the shared worker-pool substrate behind every
// embarrassingly parallel loop in the repository: per-tree ensemble
// fitting, batch prediction and the experiment sweeps.
//
// The contract every caller relies on is that For(n, workers, fn)
// calls fn(i) exactly once for every i in [0, n) and that callers
// write results by index, so the observable output is independent of
// the worker count and of goroutine scheduling. Randomised callers
// must derive each unit's seed from (master seed, unit index) before
// fanning out — never share an RNG across units — which keeps parallel
// runs bit-identical to sequential ones. This determinism contract is
// what lets the serving layer's micro-batch coalescer (internal/serve)
// promise that a coalesced batch response is byte-for-byte what each
// request would have received alone.
//
// A non-positive workers argument means "use the process default"
// (GOMAXPROCS; there is no other process-wide knob), and an effective
// worker count of one runs the loop inline on the calling goroutine,
// so degenerate inputs (empty or single-element ranges, Workers <= 0)
// degrade to plain sequential execution instead of deadlocking.
//
// Default-inherited loops additionally share one process-wide helper
// budget, so nested fan-out (a sweep over trials, each fitting a
// forest, each fitting trees) keeps total concurrency near the
// default instead of multiplying the levels together.
//
// The Ctx variants (ForCtx, MapCtx, ForBlocksCtx) add prompt
// between-unit cancellation: returned errors wrap both
// lamerr.ErrCancelled and the underlying ctx.Err().
package parallel
