package ml

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"lam/internal/parallel"
	"lam/internal/xmath"
)

// Bagging is Breiman's bootstrap-aggregation meta-estimator over an
// arbitrary base regressor: N base models are fitted on bootstrap
// resamples and their predictions averaged. The paper uses bagging as
// the variance-reduction component of the hybrid model (Section VI).
type Bagging struct {
	// NewBase constructs one untrained base model. Required.
	NewBase func() Regressor
	// N is the number of base models; values below 1 are treated as 10.
	N int
	// SampleFrac is the bootstrap sample size as a fraction of the
	// training set; values outside (0, 1] are treated as 1.
	SampleFrac float64
	// Seed drives the bootstrap resampling.
	Seed int64
	// Workers bounds fitting parallelism; values <= 0 mean GOMAXPROCS.
	// NewBase must be safe to call concurrently (factories capturing
	// only immutable state, as all estimators in this package are,
	// qualify). Results are bit-identical for every worker count: each
	// member's bootstrap RNG is derived from
	// (Seed, member index) before fan-out.
	Workers int

	models []Regressor
	// compiled is the fused flat node table when every base model is a
	// plain DecisionTree (the common configuration); nil otherwise, in
	// which case prediction loops over the members — whose own Predict
	// paths are compiled anyway for every tree-based estimator.
	compiled *CompiledEnsemble
}

// Fit trains the ensemble on bootstrap resamples of (X, y).
func (b *Bagging) Fit(X [][]float64, y []float64) error {
	return b.FitCtx(context.Background(), X, y)
}

// FitCtx is Fit with prompt cancellation between ensemble members: once
// ctx is done no further base model is fitted and a typed cancellation
// error is returned without mutating the receiver.
func (b *Bagging) FitCtx(ctx context.Context, X [][]float64, y []float64) error {
	if b.NewBase == nil {
		return errors.New("ml: Bagging requires NewBase")
	}
	if _, err := checkXY(X, y); err != nil {
		return err
	}
	n := b.N
	if n < 1 {
		n = 10
	}
	frac := b.SampleFrac
	if frac <= 0 || frac > 1 {
		frac = 1
	}
	size := int(frac * float64(len(X)))
	if size < 1 {
		size = 1
	}
	models := make([]Regressor, n)
	// Tree bases share one column view and take their bootstrap as an
	// index list into it; it is built when the first base turns out to
	// be a tree.
	cols := sync.OnceValue(func() [][]float64 { return columnView(X) })
	err := parallel.ForCtx(ctx, n, b.Workers, func(t int) error {
		seed := int64(xmath.Hash64(uint64(b.Seed), uint64(t), 0x62616767))
		m := b.NewBase()
		models[t] = m
		if tree, ok := m.(*DecisionTree); ok {
			tb := getTreeBuilder()
			defer tb.release()
			tb.sampleBootstrap(seed, len(X), size)
			tb.fit(tree, cols(), y)
			return nil
		}
		rng := rand.New(rand.NewSource(seed))
		bx := make([][]float64, size)
		by := make([]float64, size)
		for i := 0; i < size; i++ {
			j := rng.Intn(len(X))
			bx[i] = X[j]
			by[i] = y[j]
		}
		return m.Fit(bx, by)
	})
	if err != nil {
		return err
	}
	compiled, err := compileBaggedTrees(models)
	if err != nil {
		return err
	}
	b.models = models
	b.compiled = compiled
	return nil
}

// compileBaggedTrees fuses the members into one shared node table when
// every base model is a DecisionTree (nil otherwise); the mean combine
// is bit-identical to summing member Predict calls in order.
func compileBaggedTrees(models []Regressor) (*CompiledEnsemble, error) {
	trees := make([]*DecisionTree, len(models))
	for i, m := range models {
		t, ok := m.(*DecisionTree)
		if !ok {
			return nil, nil
		}
		trees[i] = t
	}
	return compileEnsemble(trees, combineMean, 0, 0)
}

// Predict returns the mean prediction of the ensemble.
func (b *Bagging) Predict(x []float64) float64 {
	if len(b.models) == 0 {
		panic("ml: Bagging.Predict called before Fit")
	}
	if b.compiled != nil {
		if want := b.NumFeatures(); want > 0 && len(x) != want {
			panic(fmt.Sprintf("ml: Bagging.Predict got %d features, want %d", len(x), want))
		}
		return b.compiled.Predict(x)
	}
	s := 0.0
	for _, m := range b.models {
		s += m.Predict(x)
	}
	return s / float64(len(b.models))
}

// predictBatchIntoSeq implements the compiled plane's sequential block
// contract: the fused node table's cache-blocked walk when every base
// is a tree, a per-row member loop otherwise (the members' own Predict
// paths are compiled anyway).
func (b *Bagging) predictBatchIntoSeq(X [][]float64, out []float64) {
	if b.compiled != nil {
		b.compiled.PredictBatchInto(X, out)
		return
	}
	predictRows(b, X, out)
}

// NumModels returns the number of fitted base models.
func (b *Bagging) NumModels() int { return len(b.models) }

// IsFitted reports whether the ensemble has been trained.
func (b *Bagging) IsFitted() bool { return len(b.models) > 0 }

// NumFeatures returns the feature arity the ensemble was fitted on (0
// before Fit, or when the base models do not expose theirs).
func (b *Bagging) NumFeatures() int {
	if len(b.models) == 0 {
		return 0
	}
	n, _ := NumFeaturesOf(b.models[0])
	return n
}
