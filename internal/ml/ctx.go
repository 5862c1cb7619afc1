package ml

import (
	"context"
	"fmt"

	"lam/internal/lamerr"
	"lam/internal/parallel"
)

// Context-first entry points for the estimator suite: one per
// operation — FitCtx, PredictCtx and PredictBatchIntoCtx. Cancellation
// is prompt: it is checked between independent units (trees,
// prediction blocks), so latency is bounded by a single unit's
// duration. Regressor.Fit and PredictBatchInto remain as conveniences
// without a context.

// ContextFitter is implemented by estimators whose training can be
// cancelled mid-fit (forests and pipelines).
type ContextFitter interface {
	FitCtx(ctx context.Context, X [][]float64, y []float64) error
}

// Fitted reports whether a regressor has been trained, when it exposes
// that state through an IsFitted method (every estimator in this
// package does). Unknown implementations are assumed fitted.
func Fitted(r Regressor) bool {
	if f, ok := r.(interface{ IsFitted() bool }); ok {
		return f.IsFitted()
	}
	return r != nil
}

// NumFeaturesOf returns the feature arity a fitted regressor expects,
// when it exposes one through a NumFeatures method (the estimators in
// this package do). The second result is false when the arity is
// unknown.
func NumFeaturesOf(r Regressor) (int, bool) {
	if nf, ok := r.(interface{ NumFeatures() int }); ok {
		if n := nf.NumFeatures(); n > 0 {
			return n, true
		}
	}
	return 0, false
}

// FitCtx fits r on (X, y), forwarding the context when r supports
// cancellation and otherwise checking it once up front.
func FitCtx(ctx context.Context, r Regressor, X [][]float64, y []float64) error {
	if cf, ok := r.(ContextFitter); ok {
		return cf.FitCtx(ctx, X, y)
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return parallel.Cancelled(err)
		}
	}
	return r.Fit(X, y)
}

// checkPredictable guards the panics in the estimators' Predict
// methods (unfitted model, wrong-arity vector) with typed errors, for
// the serving-grade entry points below.
func checkPredictable(r Regressor, x []float64) error {
	if !Fitted(r) {
		return fmt.Errorf("ml: %w", lamerr.ErrNotFitted)
	}
	if want, ok := NumFeaturesOf(r); ok && len(x) != want {
		return fmt.Errorf("ml: %w: got %d features, want %d", lamerr.ErrDimension, len(x), want)
	}
	return nil
}

// PredictCtx scores one feature vector with an up-front context check
// and typed errors (ErrNotFitted, ErrDimension) in place of the panics
// Regressor.Predict reserves for programming errors. It is the
// single-vector serving path shared by the facade's MLPredictor and
// the registry.
func PredictCtx(ctx context.Context, r Regressor, x []float64) (float64, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return 0, parallel.Cancelled(err)
		}
	}
	if err := checkPredictable(r, x); err != nil {
		return 0, err
	}
	return r.Predict(x), nil
}

// PredictBatchIntoCtx scores every row of X into out (which must have
// len(X) elements) instead of allocating, with prompt cancellation
// between row blocks — the one batch path, behind registry batch
// prediction, lam-serve's /predict endpoint, the hybrid model and the
// experiment sweeps. Fitted and per-row arity checks return typed
// errors (ErrNotFitted, ErrDimension) in place of the estimators'
// Predict panics. workers bounds the block fan-out (<= 0 means
// GOMAXPROCS); the output is bit-identical for every value. With
// workers == 1 (or at most one block of rows) the loop runs inline
// with zero allocations: a plain loop, no closure, no pool dispatch —
// compiled tree walks are allocation-free and the pipeline's scaler
// draws its blocks from a sync.Pool. Such a sequential batch with
// enough rows per node of r's ensemble is one block of the routed
// kernel instead (see routes), polled between trees, that writes out
// only once every tree is folded.
func PredictBatchIntoCtx(ctx context.Context, r Regressor, X [][]float64, out []float64, workers int) error {
	if err := checkInto(r, X, out); err != nil {
		return err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return parallel.Cancelled(err)
	}
	if parallel.Resolve(workers, batchBlocks(len(X))) == 1 {
		done := ctx.Done()
		if e, s := routedEnsemble(r, len(X)); e != nil {
			if !e.predictRouted(done, s, X, nil, out) {
				return parallel.Cancelled(ctx.Err())
			}
			return nil
		}
		if done == nil {
			// Blocks are what the context is polled between; with
			// nothing to poll the batch is one block.
			predictSeq(r, X, out)
			return nil
		}
		for lo := 0; lo < len(X); lo += BatchBlock {
			select {
			case <-done:
				return parallel.Cancelled(ctx.Err())
			default:
			}
			hi := min(lo+BatchBlock, len(X))
			predictSeq(r, X[lo:hi], out[lo:hi])
		}
		return nil
	}
	return parallel.ForBlocksCtx(ctx, len(X), workers, BatchBlock, func(lo, hi int) {
		predictSeq(r, X[lo:hi], out[lo:hi])
	})
}
