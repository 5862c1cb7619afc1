package experiments

import (
	"cmp"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"

	"lam/internal/dataset"
	"lam/internal/hybrid"
	"lam/internal/ml"
	"lam/internal/parallel"
	"lam/internal/xmath"
)

// Trainable is one model of the sweep, seeded for one trial: pure-ML
// pipelines and hybrid models both satisfy it through the wrappers
// below. Trial fits a fresh model on train and scores the rows of X
// into out (len(X) values) on the calling goroutine — the trials
// themselves fan out on the worker pool, and a sequential batch is
// what reaches the routed kernel whole. The model is a local of the
// call: it is fitted into walk tables drawn from tables and unfitted
// before Trial returns (ml.Tables.FitScore), so nothing a trial fits
// outlives it. Trial receives the sweep's context, so a cancelled
// sweep stops in-flight fits instead of waiting them out.
type Trainable interface {
	Trial(ctx context.Context, tables *ml.Tables, train *dataset.Dataset, X [][]float64, out []float64) error
}

// mlTrainable wraps an ml.Regressor factory.
type mlTrainable struct {
	factory func(seed int64) ml.Regressor
	seed    int64
}

// MLTrainable adapts a seeded regressor factory (e.g. extra trees in a
// standardising pipeline) to the sweep interface.
func MLTrainable(factory func(seed int64) ml.Regressor) func(seed int64) Trainable {
	return func(seed int64) Trainable {
		return mlTrainable{factory: factory, seed: seed}
	}
}

func (m mlTrainable) Trial(ctx context.Context, tables *ml.Tables, train *dataset.Dataset, X [][]float64, out []float64) error {
	r := m.factory(m.seed)
	return tables.FitScore(ctx, r, train.X, train.Y, func() error {
		return ml.PredictBatchIntoCtx(ctx, r, X, out, 1)
	})
}

// hybridTrainable wraps hybrid.TrialCtx.
type hybridTrainable struct {
	am  hybrid.AnalyticalModel
	cfg hybrid.Config
}

// HybridTrainable adapts a hybrid configuration to the sweep interface.
func HybridTrainable(am hybrid.AnalyticalModel, cfg hybrid.Config) func(seed int64) Trainable {
	return func(seed int64) Trainable {
		c := cfg
		c.Seed = seed
		return hybridTrainable{am: am, cfg: c}
	}
}

func (h hybridTrainable) Trial(ctx context.Context, tables *ml.Tables, train *dataset.Dataset, X [][]float64, out []float64) error {
	return hybrid.TrialCtx(ctx, tables, train, h.am, h.cfg, X, out)
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
var rngPool = sync.Pool{New: func() any { return rand.New(new(xmath.Source)) }}

// sweepMemory is the memory a figure owns and lends to the trials of
// its sweeps: the walk tables and all other fit memory their fits
// borrow (ml.Tables), and per trial in flight a trialMemory. A trial
// hands back all it borrowed once its MAPE is taken, so the memory
// holds a table, a lease and a trialMemory per worker, and all of it
// is dropped with the figure: nothing is global.
type sweepMemory struct {
	tables ml.Tables

	mu   sync.Mutex
	free []*trialMemory
}

// trialMemory is one trial's subsets — row headers and responses over
// the dataset's rows (dataset.SampleNInto) — and its held-out scores.
type trialMemory struct {
	train, test dataset.Dataset
	pred        []float64
}

// get lends a trialMemory that holds trainRows training and testRows
// held-out rows, made when none is free and regrown when the one lent
// is smaller (a later sweep of the figure draws larger subsets).
func (s *sweepMemory) get(trainRows, testRows int) *trialMemory {
	s.mu.Lock()
	t := new(trialMemory)
	if k := len(s.free) - 1; k >= 0 {
		t = s.free[k]
		s.free[k], s.free = nil, s.free[:k]
	}
	s.mu.Unlock()
	if cap(t.train.X) < trainRows {
		t.train = dataset.Dataset{X: make([][]float64, 0, trainRows), Y: make([]float64, 0, trainRows)}
	}
	if cap(t.test.X) < testRows {
		t.test = dataset.Dataset{X: make([][]float64, 0, testRows), Y: make([]float64, 0, testRows)}
		t.pred = make([]float64, testRows)
	}
	return t
}

// put takes a trialMemory back.
func (s *sweepMemory) put(t *trialMemory) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.free = append(s.free, t)
}

// MAPECurveCtx sweeps training-set fractions: at each fraction it
// redraws a uniform random training set reps times (fresh model seed
// per draw), trains, and scores MAPE on the complement. workers bounds
// the trial fan-out (<= 0 means GOMAXPROCS, 1 forces sequential
// evaluation). The (fraction, repetition) trials are independent: each
// derives its draw seed from (seed, fraction index, repetition index)
// before fan-out and writes its score at that pair's index, so the
// series is bit-identical for every worker count. Cancellation is
// prompt: once ctx is done no further trial starts, in-flight fits
// stop between their own units, and the sweep returns a typed
// cancellation error (wrapping lamerr.ErrCancelled and ctx.Err()).
//
// The sweep owns the memory its trials reuse (sweepMemory), created
// here and dropped on return; a figure's sweeps share one instead (see
// mapeCurve). A fraction outside [0, 1] fails the sweep before any
// trial starts; otherwise a failed sweep reports the error of the
// first failing trial in largest-fraction-first order.
func MAPECurveCtx(ctx context.Context, ds *dataset.Dataset, newModel func(seed int64) Trainable, fractions []float64, reps int, seed int64, label string, workers int) (Series, error) {
	return mapeCurve(ctx, new(sweepMemory), ds, newModel, fractions, reps, seed, label, workers)
}

// mapeCurve is MAPECurveCtx with its trials' memory borrowed from mem:
// each trial borrows walk tables, fit memory and subset headers, keeps
// only its MAPE, and hands them back, and no model a trial fits
// outlives the trial (see Trainable). Trials start largest fraction
// first, so the first table each worker takes is the largest the sweep
// needs and no later trial outgrows it (ml.Tables ratchets to it).
func mapeCurve(ctx context.Context, mem *sweepMemory, ds *dataset.Dataset, newModel func(seed int64) Trainable, fractions []float64, reps int, seed int64, label string, workers int) (Series, error) {
	if reps < 1 {
		reps = 1
	}
	s := Series{Label: label, Fractions: fractions, Reps: reps}
	sizes, order := make([]int, len(fractions)), make([]int, len(fractions))
	trainRows, testRows := 0, 0
	for fi, frac := range fractions {
		k, err := ds.FractionLen(frac)
		if err != nil {
			return Series{}, err
		}
		sizes[fi], order[fi] = k, fi
		trainRows, testRows = max(trainRows, k), max(testRows, ds.Len()-k)
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(sizes[b], sizes[a]) })
	scores := make([]float64, len(fractions)*reps)
	err := parallel.ForCtx(ctx, len(scores), workers, func(u int) error {
		fi, r := order[u/reps], u%reps
		frac := fractions[fi]
		drawSeed := int64(xmath.Hash64(uint64(seed), uint64(fi), uint64(r)))
		t := mem.get(trainRows, testRows)
		defer mem.put(t)
		rng := rngPool.Get().(*rand.Rand)
		rng.Seed(drawSeed)
		err := ds.SampleNInto(sizes[fi], rng, &t.train, &t.test)
		rngPool.Put(rng)
		if err != nil {
			return err
		}
		if t.train.Len() == 0 || t.test.Len() == 0 {
			return fmt.Errorf("experiments: degenerate split at fraction %v", frac)
		}
		pred := t.pred[:t.test.Len()]
		if err := newModel(drawSeed).Trial(ctx, &mem.tables, &t.train, t.test.X, pred); err != nil {
			return fmt.Errorf("experiments: fit at fraction %v rep %d: %w", frac, r, err)
		}
		scores[fi*reps+r] = ml.MAPE(t.test.Y, pred)
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
