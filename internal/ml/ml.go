package ml

import (
	"context"
	"errors"
	"fmt"

	"lam/internal/lamerr"
	"lam/internal/parallel"
)

// Regressor is the common estimator interface: fit on a design matrix
// and predict scalar responses.
type Regressor interface {
	// Fit trains the model. Implementations must not retain X or y.
	Fit(X [][]float64, y []float64) error
	// Predict returns the model's estimate for a single feature vector.
	// Calling Predict before a successful Fit is a programming error and
	// panics. After a successful Fit, Predict must be safe for
	// concurrent use — every estimator in this package reads only
	// immutable fitted state, which is what lets batch prediction and
	// the experiment sweeps fan out over a fitted model.
	Predict(x []float64) float64
}

// checkInto validates an allocation-free batch-prediction call: fitted
// model, matching output length, per-row arity.
func checkInto(r Regressor, X [][]float64, out []float64) error {
	if !Fitted(r) {
		return fmt.Errorf("ml: %w", lamerr.ErrNotFitted)
	}
	if len(out) != len(X) {
		return fmt.Errorf("ml: %w: output slice holds %d values for %d rows", lamerr.ErrDimension, len(out), len(X))
	}
	if want, ok := NumFeaturesOf(r); ok {
		for i, x := range X {
			if len(x) != want {
				return fmt.Errorf("ml: row %d: %w: got %d features, want %d",
					i, lamerr.ErrDimension, len(x), want)
			}
		}
	}
	return nil
}

// seqBatchIntoPredictor is the one batch contract of the compiled
// inference plane: score a validated row block into out sequentially
// (no pool dispatch, no allocation), using the estimator's best batch
// walk — the fused node table's tree-major kernel for tree ensembles;
// for the Pipeline wrapper a block → block transform into a pooled
// rowBlock that is handed to the inner model's own
// predictBatchIntoSeq, so every nesting reaches the kernel. The generic
// batch cores below dispatch through it per block, so every layer that
// funnels into them (registry, serve, hybrid, the experiment sweeps)
// gets the compiled walk without per-call-site wiring; the caller's
// workers argument still governs parallelism. Implementations must
// never call back into the generic cores, so dispatch cannot recurse.
type seqBatchIntoPredictor interface {
	predictBatchIntoSeq(X [][]float64, out []float64)
}

// BatchBlock is the one block size of the batch path: the rows a
// wrapper transforms into its pooled rowBlock at a time, the rows
// between context polls, and the unit the batch cores deal to workers.
// It is sized for the tree-major kernel, which re-reads one tree's
// nodes for every row of the block: on a table far past the cache, 16-
// row blocks cost 1.4x a 256-row block's time per row and a 512-row
// block 0.9x; on an L2-resident table the size stops mattering from 64
// rows (EXPERIMENTS.md § Batch budget). 256 keeps the pooled block and
// the cancellation latency small and still lets a 512-row request use
// two workers.
const BatchBlock = 256

// batchBlocks returns how many BatchBlock-row blocks cover n rows.
func batchBlocks(n int) int { return (n + BatchBlock - 1) / BatchBlock }

// PredictBatchInto is PredictBatchIntoCtx without cancellation.
func PredictBatchInto(r Regressor, X [][]float64, out []float64, workers int) error {
	return PredictBatchIntoCtx(context.Background(), r, X, out, workers)
}

// predictBatchInto is PredictBatchIntoCtx's validated core for a
// context that cannot be cancelled. Workers are resolved over the
// number of blocks, so anything up to one block is scored inline on the
// caller's goroutine; that case has no closure and no pool dispatch, so
// it is provably allocation-free.
func predictBatchInto(r Regressor, X [][]float64, out []float64, workers int) {
	if parallel.Resolve(workers, batchBlocks(len(X))) == 1 {
		predictSeq(r, X, out)
		return
	}
	parallel.ForBlocks(len(X), workers, BatchBlock, func(lo, hi int) {
		predictSeq(r, X[lo:hi], out[lo:hi])
	})
}

// predictSeq scores a validated row block sequentially through r's
// batch walk, or row by row for regressors without one (implementations
// outside this package, which the public batch entry points accept).
func predictSeq(r Regressor, X [][]float64, out []float64) {
	if seq, ok := r.(seqBatchIntoPredictor); ok {
		seq.predictBatchIntoSeq(X, out)
		return
	}
	for i, x := range X {
		out[i] = r.Predict(x)
	}
}

// checkXY validates the design matrix and response vector shapes shared
// by all estimators. It returns the feature arity.
func checkXY(X [][]float64, y []float64) (int, error) {
	if len(X) == 0 {
		return 0, errors.New("ml: empty training set")
	}
	if len(X) != len(y) {
		return 0, fmt.Errorf("ml: %d samples but %d responses", len(X), len(y))
	}
	p := len(X[0])
	if p == 0 {
		return 0, errors.New("ml: samples have zero features")
	}
	for i, row := range X {
		if len(row) != p {
			return 0, fmt.Errorf("ml: row %d has %d features, want %d", i, len(row), p)
		}
	}
	return p, nil
}
