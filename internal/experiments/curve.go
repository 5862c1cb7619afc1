package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"sync"

	"lam/internal/dataset"
	"lam/internal/hybrid"
	"lam/internal/ml"
	"lam/internal/parallel"
	"lam/internal/xmath"
)

// Trainable is anything the sweep can fit on a dataset and batch-score
// — pure-ML pipelines and hybrid models both satisfy it through the
// wrappers below. Fit receives the sweep's context, so a cancelled
// sweep stops in-flight fits instead of waiting them out;
// PredictBatchInto writes len(X) predictions into out.
type Trainable interface {
	Fit(ctx context.Context, train *dataset.Dataset) error
	PredictBatchInto(X [][]float64, out []float64) error
}

// mlTrainable wraps an ml.Regressor factory.
type mlTrainable struct {
	factory func(seed int64) ml.Regressor
	seed    int64
	model   ml.Regressor
}

// MLTrainable adapts a seeded regressor factory (e.g. extra trees in a
// standardising pipeline) to the sweep interface.
func MLTrainable(factory func(seed int64) ml.Regressor) func(seed int64) Trainable {
	return func(seed int64) Trainable {
		return &mlTrainable{factory: factory, seed: seed}
	}
}

func (m *mlTrainable) Fit(ctx context.Context, train *dataset.Dataset) error {
	m.model = m.factory(m.seed)
	return ml.FitCtx(ctx, m.model, train.X, train.Y)
}

// PredictBatchInto scores rows sequentially (the trials themselves fan
// out on the worker pool).
func (m *mlTrainable) PredictBatchInto(X [][]float64, out []float64) error {
	return ml.PredictBatchInto(m.model, X, out, 1)
}

// hybridTrainable wraps hybrid.TrainCtx.
type hybridTrainable struct {
	am    hybrid.AnalyticalModel
	cfg   hybrid.Config
	model *hybrid.Model
}

// HybridTrainable adapts a hybrid configuration to the sweep interface.
func HybridTrainable(am hybrid.AnalyticalModel, cfg hybrid.Config) func(seed int64) Trainable {
	return func(seed int64) Trainable {
		c := cfg
		c.Seed = seed
		return &hybridTrainable{am: am, cfg: c}
	}
}

func (h *hybridTrainable) Fit(ctx context.Context, train *dataset.Dataset) error {
	m, err := hybrid.TrainCtx(ctx, train, h.am, h.cfg)
	if err != nil {
		return err
	}
	h.model = m
	return nil
}

// PredictBatchInto scores rows sequentially, like mlTrainable's: the
// trials already own the cores, and a sequential batch is what reaches
// the routed kernel whole.
func (h *hybridTrainable) PredictBatchInto(X [][]float64, out []float64) error {
	return h.model.PredictBatchIntoCtx(context.Background(), X, out, 1)
}

// Series is one MAPE-vs-training-fraction curve: the content of one
// panel of the paper's figures (mean over repetitions, with spread).
type Series struct {
	Label     string
	Fractions []float64
	// MeanMAPE, StdMAPE, MedianMAPE aggregate the repetitions at each
	// fraction (the paper draws boxplots; we report the moments).
	MeanMAPE   []float64
	StdMAPE    []float64
	MedianMAPE []float64
	// Reps is the number of training-set redraws per fraction.
	Reps int
}

// rngPool recycles the sweep's draw generators. Reseeding one draws
// exactly the stream a fresh rand.New(rand.NewSource(seed)) would, and
// spares each trial a 4.9 kB source.
var rngPool = sync.Pool{New: func() any { return rand.New(rand.NewSource(0)) }}

// MAPECurveCtx sweeps training-set fractions: at each fraction it
// redraws a uniform random training set reps times (fresh model seed
// per draw), trains, and scores MAPE on the complement. workers bounds
// the trial fan-out (<= 0 means GOMAXPROCS, 1 forces sequential
// evaluation). The (fraction, repetition) trials are independent: each
// derives its draw seed from (seed, fraction index, repetition index)
// before fan-out and writes its score by trial index, so the series is
// bit-identical for every worker count. Cancellation is prompt: once
// ctx is done no further trial starts, in-flight fits stop between
// their own units, and the sweep returns a typed cancellation error
// (wrapping lamerr.ErrCancelled and ctx.Err()).
func MAPECurveCtx(ctx context.Context, ds *dataset.Dataset, newModel func(seed int64) Trainable, fractions []float64, reps int, seed int64, label string, workers int) (Series, error) {
	if reps < 1 {
		reps = 1
	}
	s := Series{Label: label, Fractions: fractions, Reps: reps}
	scores := make([]float64, len(fractions)*reps)
	err := parallel.ForCtx(ctx, len(scores), workers, func(u int) error {
		fi, r := u/reps, u%reps
		frac := fractions[fi]
		drawSeed := int64(xmath.Hash64(uint64(seed), uint64(fi), uint64(r)))
		rng := rngPool.Get().(*rand.Rand)
		rng.Seed(drawSeed)
		train, test, err := ds.SampleFraction(frac, rng)
		rngPool.Put(rng)
		if err != nil {
			return err
		}
		if train.Len() == 0 || test.Len() == 0 {
			return fmt.Errorf("experiments: degenerate split at fraction %v", frac)
		}
		m := newModel(drawSeed)
		if err := m.Fit(ctx, train); err != nil {
			return fmt.Errorf("experiments: fit at fraction %v rep %d: %w", frac, r, err)
		}
		// A pooled buffer: the sweep's eval loop allocates nothing per
		// trial.
		buf := ml.GetScratch(test.Len())
		defer ml.PutScratch(buf)
		if err := m.PredictBatchInto(test.X, *buf); err != nil {
			return err
		}
		scores[u] = ml.MAPE(test.Y, *buf)
		return nil
	})
	if err != nil {
		return Series{}, err
	}
	for fi := range fractions {
		fs := scores[fi*reps : (fi+1)*reps]
		s.MeanMAPE = append(s.MeanMAPE, xmath.Mean(fs))
		s.StdMAPE = append(s.StdMAPE, xmath.StdDev(fs))
		s.MedianMAPE = append(s.MedianMAPE, xmath.Median(fs))
	}
	return s, nil
}

// DefaultPipeline returns the paper's standard estimator stack: a
// StandardScaler feeding the given tree ensemble.
func DefaultPipeline(kind string, nTrees int) func(seed int64) ml.Regressor {
	return func(seed int64) ml.Regressor {
		var inner ml.Regressor
		switch kind {
		case "dt":
			inner = ml.NewDecisionTree(ml.TreeConfig{Seed: seed})
		case "rf":
			inner = ml.NewRandomForest(nTrees, seed)
		default: // "et"
			inner = ml.NewExtraTrees(nTrees, seed)
		}
		return &ml.Pipeline{Model: inner}
	}
}
