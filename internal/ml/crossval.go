package ml

import (
	"context"
	"fmt"
	"math/rand"

	"lam/internal/parallel"
)

// KFoldIndices partitions 0..n-1 into k shuffled folds whose sizes
// differ by at most one. k is clamped to [2, n].
func KFoldIndices(n, k int, rng *rand.Rand) [][]int {
	if k < 2 {
		k = 2
	}
	if k > n {
		k = n
	}
	perm := rng.Perm(n)
	folds := make([][]int, k)
	for i, idx := range perm {
		f := i % k
		folds[f] = append(folds[f], idx)
	}
	return folds
}

// CrossValScoreCtx runs k-fold cross-validation of the model produced
// by newModel, scoring each held-out fold with score (e.g. MAPE), and
// returns the per-fold scores. workers bounds the fold fan-out (<= 0
// means GOMAXPROCS, 1 forces sequential evaluation); the fold partition
// is drawn from the master seed before fan-out and scores are stored by
// fold index, so the result is bit-identical for every worker count.
// newModel must be safe to call concurrently. The context is checked
// between folds and threaded into each fold's fit.
func CrossValScoreCtx(ctx context.Context, newModel func() Regressor, X [][]float64, y []float64, k int, seed int64, score func(yTrue, yPred []float64) float64, workers int) ([]float64, error) {
	if _, err := checkXY(X, y); err != nil {
		return nil, err
	}
	n := len(X)
	folds := KFoldIndices(n, k, rand.New(rand.NewSource(seed)))
	scores := make([]float64, len(folds))
	err := parallel.ForCtx(ctx, len(folds), workers, func(f int) error {
		fold := folds[f]
		inFold := make([]bool, n)
		for _, i := range fold {
			inFold[i] = true
		}
		trX := make([][]float64, 0, n-len(fold))
		trY := make([]float64, 0, n-len(fold))
		for i := 0; i < n; i++ {
			if !inFold[i] {
				trX = append(trX, X[i])
				trY = append(trY, y[i])
			}
		}
		m := newModel()
		if err := FitCtx(ctx, m, trX, trY); err != nil {
			return fmt.Errorf("ml: cross-validation fold %d: %w", f, err)
		}
		yt := make([]float64, len(fold))
		yp := make([]float64, len(fold))
		for j, i := range fold {
			yt[j] = y[i]
			yp[j] = m.Predict(X[i])
		}
		scores[f] = score(yt, yp)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return scores, nil
}
