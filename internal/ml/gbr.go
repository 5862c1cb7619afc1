package ml

import (
	"context"
	"fmt"

	"lam/internal/lamerr"
	"lam/internal/parallel"
	"lam/internal/xmath"
)

// GradientBoosting is a least-squares gradient-boosted trees regressor:
// shallow CART trees fitted stage-wise to the residuals, scaled by a
// learning rate. It completes the ensemble family around the paper's
// bagging/stacking methods and serves as an additional baseline in the
// ablation benches.
type GradientBoosting struct {
	// NStages is the number of boosting rounds; values below 1 are
	// treated as 100.
	NStages int
	// LearningRate shrinks each stage's contribution; values outside
	// (0, 1] are treated as 0.1.
	LearningRate float64
	// MaxDepth bounds each stage's tree; values below 1 are treated as
	// 3 (the classic boosting weak learner).
	MaxDepth int
	// MinSamplesLeaf is forwarded to the stage trees.
	MinSamplesLeaf int
	// Subsample draws a fraction of the training set per stage
	// (stochastic gradient boosting); values outside (0, 1] mean 1.
	Subsample float64
	// Seed drives subsampling and stage-tree randomness.
	Seed int64
	// Workers bounds the per-stage training-set scoring parallelism;
	// values <= 0 mean GOMAXPROCS. Boosting stages themselves are
	// inherently sequential (each fits the previous residual), but
	// scoring every training sample with the freshly grown stage tree
	// is an independent-iteration loop and dominates on wide datasets.
	Workers int

	init     float64
	stages   []*DecisionTree
	rate     float64
	compiled *CompiledEnsemble
}

// Fit runs stage-wise least-squares boosting.
func (g *GradientBoosting) Fit(X [][]float64, y []float64) error {
	return g.FitCtx(context.Background(), X, y)
}

// FitCtx is Fit with prompt cancellation between boosting stages (the
// stages themselves are inherently sequential); once ctx is done the
// fit returns a typed cancellation error without mutating the receiver.
func (g *GradientBoosting) FitCtx(ctx context.Context, X [][]float64, y []float64) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if _, err := checkXY(X, y); err != nil {
		return err
	}
	n := len(X)
	stagesN := g.NStages
	if stagesN < 1 {
		stagesN = 100
	}
	rate := g.LearningRate
	if rate <= 0 || rate > 1 {
		rate = 0.1
	}
	depth := g.MaxDepth
	if depth < 1 {
		depth = 3
	}
	sub := g.Subsample
	if sub <= 0 || sub > 1 {
		sub = 1
	}

	// Initial prediction: the mean.
	mean := 0.0
	for _, v := range y {
		mean += v
	}
	mean /= float64(n)
	stages := make([]*DecisionTree, 0, stagesN)

	current := make([]float64, n)
	for i := range current {
		current[i] = mean
	}
	residual := make([]float64, n)
	subN := int(sub * float64(n))
	if subN < 1 {
		subN = 1
	}
	// The stages are sequential, so one builder and one column view
	// serve them all; each stage fits the shared residual vector.
	cols := columnView(X)
	b := getTreeBuilder()
	defer b.release()
	for s := 0; s < stagesN; s++ {
		if err := ctx.Err(); err != nil {
			return parallel.Cancelled(err)
		}
		for i := range residual {
			residual[i] = y[i] - current[i]
		}
		if subN < n {
			// Deterministic per-stage subsample.
			b.sampleSubset(int64(xmath.Hash64(uint64(g.Seed), uint64(s), 0x676272)), n, subN)
		} else {
			b.sampleAll(n)
		}
		tree := NewDecisionTree(TreeConfig{
			MaxDepth:       depth,
			MinSamplesLeaf: g.MinSamplesLeaf,
			Seed:           g.Seed + int64(s)*7919,
		})
		b.fit(tree, cols, residual)
		stages = append(stages, tree)
		// Disjoint per-index writes: the update is bit-identical for
		// every worker count.
		parallel.ForBlocks(n, g.Workers, 64, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				current[i] += rate * tree.Predict(X[i])
			}
		})
	}
	compiled, err := compileEnsemble(stages, combineBoosted, mean, rate)
	if err != nil {
		return err
	}
	g.init = mean
	g.rate = rate
	g.stages = stages
	g.compiled = compiled
	return nil
}

// Compiled exposes the booster's shared flat node table (built at
// Fit/load time). Treat it as read-only; nil before Fit.
func (g *GradientBoosting) Compiled() *CompiledEnsemble { return g.compiled }

// IsFitted reports whether the booster has been trained.
func (g *GradientBoosting) IsFitted() bool { return len(g.stages) > 0 }

// NumFeatures returns the feature arity the booster was fitted on (0
// before Fit).
func (g *GradientBoosting) NumFeatures() int {
	if len(g.stages) == 0 {
		return 0
	}
	return g.stages[0].NumFeatures()
}

// Predict sums the initial value and all shrunken stage contributions:
// one allocation-free walk over the compiled ensemble, accumulated in
// stage order — bit-identical to summing per-stage Predict calls.
func (g *GradientBoosting) Predict(x []float64) float64 {
	if g.compiled == nil {
		panic("ml: GradientBoosting.Predict called before Fit")
	}
	if want := g.stages[0].nFeatures; len(x) != want {
		panic(fmt.Sprintf("ml: GradientBoosting.Predict got %d features, want %d", len(x), want))
	}
	return g.compiled.Predict(x)
}

// predictBatchIntoSeq implements the compiled plane's sequential
// block contract: one walk over the fused stage table.
func (g *GradientBoosting) predictBatchIntoSeq(X [][]float64, out []float64) {
	g.compiled.PredictBatchInto(X, out)
}

// NumStages returns the number of fitted boosting stages.
func (g *GradientBoosting) NumStages() int { return len(g.stages) }

// StagedPredictInto writes the prediction after every boosting stage
// into out (which must have NumStages elements) with zero allocations —
// useful for picking an early-stopping point on a validation set — and
// returns the *Into contract's typed errors (ErrNotFitted,
// ErrDimension) instead of panicking.
func (g *GradientBoosting) StagedPredictInto(x []float64, out []float64) error {
	if g.compiled == nil {
		return fmt.Errorf("ml: %w", lamerr.ErrNotFitted)
	}
	if want := g.stages[0].nFeatures; len(x) != want {
		return fmt.Errorf("ml: %w: got %d features, want %d", lamerr.ErrDimension, len(x), want)
	}
	if len(out) != len(g.stages) {
		return fmt.Errorf("ml: %w: output slice holds %d values for %d stages", lamerr.ErrDimension, len(out), len(g.stages))
	}
	g.compiled.PredictInto(x, out)
	return nil
}
