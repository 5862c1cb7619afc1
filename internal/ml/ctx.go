package ml

import (
	"context"
	"fmt"
	"math"

	"lam/internal/lamerr"
	"lam/internal/parallel"
)

// Context-aware entry points for the estimator suite. The v1 functions
// (PredictBatch, CrossValScore, GridSearch, each estimator's Fit)
// remain as thin wrappers over these with context.Background(); new
// code — and everything reachable from the serving layer — should call
// the Ctx variants so long fits and sweeps are cancellable and
// deadline-aware. Cancellation is prompt: it is checked between
// independent units (trees, folds, candidates, prediction blocks), so
// latency is bounded by a single unit's duration.

// ContextFitter is implemented by estimators whose training can be
// cancelled mid-fit (forests, bagging, stacking, boosting, pipelines).
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

// PredictBatchCtx applies r.Predict to every row of X like
// PredictBatchWorkers, re-checking the context between blocks; on
// cancellation it returns a typed error and no predictions. Fitted and
// per-row arity checks guard the panics in the estimators' Predict
// methods.
func PredictBatchCtx(ctx context.Context, r Regressor, X [][]float64, workers int) ([]float64, error) {
	out := make([]float64, len(X))
	if err := PredictBatchIntoCtx(ctx, r, X, out, workers); err != nil {
		return nil, err
	}
	return out, nil
}

// PredictBatchIntoCtx is PredictBatchInto with prompt cancellation
// between row blocks — the allocation-free serving path behind
// registry batch prediction and lam-serve's /predict endpoint. With
// workers == 1 (or at most one block of rows) the loop runs inline
// with zero allocations: a plain loop, no closure, no pool dispatch.
func PredictBatchIntoCtx(ctx context.Context, r Regressor, X [][]float64, out []float64, workers int) error {
	if err := checkInto(r, X, out); err != nil {
		return err
	}
	if ctx == nil || ctx.Done() == nil {
		predictBatchInto(r, X, out, workers)
		return nil
	}
	if err := ctx.Err(); err != nil {
		return parallel.Cancelled(err)
	}
	if parallel.Resolve(workers, batchBlocks(len(X))) == 1 {
		done := ctx.Done()
		for lo := 0; lo < len(X); lo += batchBlock {
			select {
			case <-done:
				return parallel.Cancelled(ctx.Err())
			default:
			}
			hi := min(lo+batchBlock, len(X))
			predictSeq(r, X[lo:hi], out[lo:hi])
		}
		return nil
	}
	return parallel.ForBlocksCtx(ctx, len(X), workers, batchBlock, func(lo, hi int) {
		predictSeq(r, X[lo:hi], out[lo:hi])
	})
}

// CrossValScoreCtx is CrossValScoreWorkers with prompt cancellation
// between folds.
func CrossValScoreCtx(ctx context.Context, newModel func() Regressor, X [][]float64, y []float64, k int, seed int64, score func(yTrue, yPred []float64) float64, workers int) ([]float64, error) {
	return crossValScore(ctx, newModel, X, y, k, seed, score, workers)
}

// GridSearchCtx is GridSearchWorkers with prompt cancellation between
// hyperparameter candidates (and between the folds inside each
// candidate).
func GridSearchCtx(
	ctx context.Context,
	grids []ParamGrid,
	newModel func(params map[string]float64) Regressor,
	X [][]float64, y []float64,
	k int, seed int64,
	score func(yTrue, yPred []float64) float64,
	workers int,
) (best GridSearchResult, all []GridSearchResult, err error) {
	candidates, err := enumerateGrid(grids)
	if err != nil {
		return best, nil, err
	}
	if _, err := checkXY(X, y); err != nil {
		return best, nil, err
	}
	all, err = parallel.MapCtx(ctx, len(candidates), workers, func(c int) (GridSearchResult, error) {
		params := candidates[c]
		scores, err := crossValScore(ctx, func() Regressor { return newModel(params) },
			X, y, k, seed, score, 1)
		if err != nil {
			return GridSearchResult{}, err
		}
		mean := 0.0
		for _, s := range scores {
			mean += s
		}
		mean /= float64(len(scores))
		return GridSearchResult{Params: params, Score: mean}, nil
	})
	if err != nil {
		return best, nil, err
	}
	best.Score = math.Inf(1)
	for _, res := range all {
		if res.Score < best.Score {
			best = res
		}
	}
	return best, all, nil
}
