// Package hybrid implements the paper's contribution (Section VI): a
// performance predictor that couples an analytical model with a machine
// learning model through two ensemble devices.
//
//  1. Stacking: the analytical model's prediction is appended to every
//     feature vector and an ML regressor (extra trees by default) is
//     trained on the augmented features, letting it "learn and correct"
//     the analytical model.
//  2. Bagging-style aggregation (optional): the analytical and stacked
//     predictions are averaged, reducing variance when the analytical
//     model is representative of the code. The paper disables this when
//     the analytical model misses whole effects (Fig. 7: a serial AM
//     paired with a multithreaded code).
//
// Training follows Fig. 4 of the paper: the model is constructed once
// offline from a (small) training dataset and then queried many times.
package hybrid

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"lam/internal/dataset"
	"lam/internal/lamerr"
	"lam/internal/ml"
	"lam/internal/parallel"
)

// AnalyticalModel scores a raw (unscaled) feature vector with a
// closed-form performance model. Implementations adapt the typed models
// in internal/analytical to each dataset's feature layout. Predict must
// be safe for concurrent use (the models in internal/analytical are
// pure functions of their machine description): batch scoring and the
// experiment sweeps call it from the worker pool.
type AnalyticalModel interface {
	Predict(x []float64) (float64, error)
}

// AnalyticalFunc adapts a plain function to AnalyticalModel.
type AnalyticalFunc func(x []float64) (float64, error)

// Predict implements AnalyticalModel.
func (f AnalyticalFunc) Predict(x []float64) (float64, error) { return f(x) }

// Mode selects how the ML component consumes the analytical prediction.
type Mode int

const (
	// StackMode appends the analytical prediction as an extra feature
	// (the paper's method).
	StackMode Mode = iota
	// ResidualMode trains the ML model on y − AM(x) and adds the AM
	// back at prediction time (the Didona et al. alternative; kept for
	// the ablation benches).
	ResidualMode
	// RatioMode trains the ML model on y / AM(x) and multiplies at
	// prediction time.
	RatioMode
)

func (m Mode) String() string {
	switch m {
	case StackMode:
		return "stack"
	case ResidualMode:
		return "residual"
	case RatioMode:
		return "ratio"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Config tunes the hybrid model. The zero value reproduces the paper's
// setup: stacking with a standardising extra-trees pipeline and no
// aggregation.
type Config struct {
	// NewML constructs the untrained ML component; nil means a
	// StandardScaler + 100-tree extra-trees pipeline, the paper's
	// best-performing estimator.
	NewML func() ml.Regressor
	// Mode selects stacking (default), residual or ratio coupling.
	Mode Mode
	// Aggregate enables the bagging-style averaging of the analytical
	// and stacked predictions (paper Fig. 4, "optional").
	Aggregate bool
	// AggregateWeight is the weight of the stacked model in the
	// aggregate; 0 means 0.5 (the plain average of the two predictors).
	AggregateWeight float64
	// Seed drives the ML component's randomness.
	Seed int64
	// Workers bounds training parallelism and MAPE scoring; values <= 0
	// mean GOMAXPROCS. It is not persisted: batch prediction takes its
	// worker count per call (PredictBatchIntoCtx). Predictions are
	// bit-identical for every worker count.
	Workers int
}

func (c Config) newML() ml.Regressor {
	if c.NewML != nil {
		return c.NewML()
	}
	et := ml.NewExtraTrees(100, c.Seed)
	et.Workers = c.Workers
	return &ml.Pipeline{Model: et}
}

// Model is a trained hybrid predictor.
type Model struct {
	cfg       Config
	am        AnalyticalModel
	mlModel   ml.Regressor
	nFeatures int
}

// TrainCtx builds a hybrid model from a training dataset and an
// analytical model, following the paper's training algorithm: score
// every training sample with the AM, augment (or transform) the
// features, fit the ML component. Cancellation is prompt: the context
// is checked between analytical-model scores and threaded into the ML
// component's fit, so a cancelled training run returns a typed error
// (wrapping lamerr.ErrCancelled and ctx.Err()) within one unit's
// duration.
func TrainCtx(ctx context.Context, train *dataset.Dataset, am AnalyticalModel, cfg Config) (*Model, error) {
	if am == nil {
		return nil, errors.New("hybrid: analytical model required")
	}
	if train == nil || train.Len() == 0 {
		return nil, errors.New("hybrid: empty training set")
	}
	if err := train.Validate(); err != nil {
		return nil, err
	}
	amPred := make([]float64, train.Len())
	if err := parallel.ForCtx(ctx, train.Len(), cfg.Workers, func(i int) error {
		p, err := am.Predict(train.X[i])
		if err != nil {
			return fmt.Errorf("hybrid: analytical model on training sample %d: %w", i, err)
		}
		amPred[i] = p
		return nil
	}); err != nil {
		return nil, err
	}

	m := &Model{cfg: cfg, am: am, nFeatures: train.NumFeatures()}
	mlModel := cfg.newML()
	switch cfg.Mode {
	case StackMode:
		aug, err := train.WithFeature("__analytical", amPred)
		if err != nil {
			return nil, err
		}
		if err := ml.FitCtx(ctx, mlModel, aug.X, aug.Y); err != nil {
			return nil, err
		}
	case ResidualMode:
		res := make([]float64, train.Len())
		for i := range res {
			res[i] = train.Y[i] - amPred[i]
		}
		if err := ml.FitCtx(ctx, mlModel, train.X, res); err != nil {
			return nil, err
		}
	case RatioMode:
		ratio := make([]float64, train.Len())
		for i := range ratio {
			if amPred[i] == 0 {
				return nil, fmt.Errorf("hybrid: ratio mode with zero analytical prediction at sample %d", i)
			}
			ratio[i] = train.Y[i] / amPred[i]
		}
		if err := ml.FitCtx(ctx, mlModel, train.X, ratio); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("hybrid: unknown mode %v", cfg.Mode)
	}
	m.mlModel = mlModel
	return m, nil
}

// NumFeatures returns the feature arity the model was trained on (the
// raw vector, without the stacked analytical feature).
func (m *Model) NumFeatures() int { return m.nFeatures }

// Config returns the coupling configuration the model was trained (or
// loaded) with. The online retrainer uses it to rebuild a drifted
// model with the same mode/aggregation as the deployed artifact —
// persistence stores these fields, so a registry-loaded model
// round-trips its coupling exactly. NewML is not persisted; a zero
// NewML retrains with the default extra-trees pipeline.
func (m *Model) Config() Config { return m.cfg }

// IsFitted reports whether the model carries a trained ML component.
func (m *Model) IsFitted() bool { return m != nil && m.mlModel != nil }

// Predict scores one feature vector: run the AM, couple it with the ML
// component per the mode, optionally aggregate.
func (m *Model) Predict(x []float64) (float64, error) {
	if !m.IsFitted() {
		return 0, fmt.Errorf("hybrid: %w", lamerr.ErrNotFitted)
	}
	if len(x) != m.nFeatures {
		return 0, fmt.Errorf("hybrid: %w: predict got %d features, want %d",
			lamerr.ErrDimension, len(x), m.nFeatures)
	}
	amP, err := m.am.Predict(x)
	if err != nil {
		return 0, fmt.Errorf("hybrid: analytical model: %w", err)
	}
	var stacked float64
	switch m.cfg.Mode {
	case StackMode:
		// The augmented vector lives in pooled scratch: the serve hot
		// path calls Predict per row and must not allocate per row.
		buf := ml.GetScratch(len(x) + 1)
		aug := *buf
		copy(aug, x)
		aug[len(x)] = amP
		stacked = m.mlModel.Predict(aug)
		ml.PutScratch(buf)
	case ResidualMode:
		stacked = amP + m.mlModel.Predict(x)
	case RatioMode:
		stacked = amP * m.mlModel.Predict(x)
	}
	if !m.cfg.Aggregate {
		return stacked, nil
	}
	w := m.cfg.AggregateWeight
	if w == 0 {
		w = 0.5
	}
	return w*stacked + (1-w)*amP, nil
}

// PredictCtx is Predict with an up-front cancellation check — single
// scores are microsecond-scale, so no mid-prediction check is needed.
func (m *Model) PredictCtx(ctx context.Context, x []float64) (float64, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return 0, parallel.Cancelled(err)
		}
	}
	return m.Predict(x)
}

// batchBlock is the row count PredictBatchIntoCtx scores at a time: the
// same kernel-sized block internal/ml's batch path uses (its batchBlock;
// see there for the measurement), so one block here is one sequential
// tree-major walk there. It bounds the pooled augmented block, is the
// unit dealt to workers and the distance between context polls.
const batchBlock = 256

// PredictBatchIntoCtx scores every row of X into out (which must have
// len(X) elements) with prompt cancellation between row blocks: the one
// batch path, behind registry batch prediction, lam-serve and the
// experiment sweeps. Each block of up to batchBlock rows is scored as a
// block — the analytical column once, one batch call into the ML
// component, then the mode's coupling per row in Predict's operation
// order — so the result is bit-identical to len(X) sequential Predict
// calls for every worker count, and the ML component's tree-major
// kernel is reached from every caller. workers bounds the block
// fan-out (<= 0 means GOMAXPROCS), as in ml.PredictBatchIntoCtx; it is
// resolved over the number of blocks, so up to one block (an /observe
// batch, a coalescer drain) — or any batch at workers == 1 — runs
// inline on the caller's goroutine and, given an allocation-free
// analytical model, performs zero steady-state allocations.
//
// On a failing row (wrong arity, analytical-model error) the error is
// the one Predict returns for the lowest such row, and every row
// before it has been written.
func (m *Model) PredictBatchIntoCtx(ctx context.Context, X [][]float64, out []float64, workers int) error {
	if !m.IsFitted() {
		return fmt.Errorf("hybrid: %w", lamerr.ErrNotFitted)
	}
	if len(out) != len(X) {
		return fmt.Errorf("hybrid: %w: output slice holds %d values for %d rows",
			lamerr.ErrDimension, len(out), len(X))
	}
	blocks := (len(X) + batchBlock - 1) / batchBlock
	if parallel.Resolve(workers, blocks) > 1 {
		return parallel.ForCtx(ctx, blocks, workers, func(b int) error {
			lo := b * batchBlock
			hi := min(lo+batchBlock, len(X))
			return m.predictBlock(X[lo:hi], out[lo:hi])
		})
	}
	// The sequential branch is a plain loop, not ForCtx with one
	// worker: a closure would cost one heap allocation per call,
	// breaking the hard zero-allocation assertions the serve tests make
	// on this path.
	var done <-chan struct{}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return parallel.Cancelled(err)
		}
		done = ctx.Done()
	}
	for lo := 0; lo < len(X); lo += batchBlock {
		select {
		case <-done:
			return parallel.Cancelled(ctx.Err())
		default:
		}
		hi := min(lo+batchBlock, len(X))
		if err := m.predictBlock(X[lo:hi], out[lo:hi]); err != nil {
			return err
		}
	}
	return nil
}

// augBlock is the pooled block stack mode augments its rows into: one
// flat backing array and the row views over it. The views point only
// into flat, so a pooled block keeps no caller's rows alive, and it
// holds at most batchBlock rows.
type augBlock struct {
	flat []float64
	rows [][]float64
}

var augBlockPool = sync.Pool{New: func() any { return new(augBlock) }}

// predictBlock scores one block of at most batchBlock rows into out.
// The analytical column is computed first, into out itself; if row k
// fails, the rows before it are still scored and row k's error — the
// text Predict gives it — is returned.
func (m *Model) predictBlock(X [][]float64, out []float64) error {
	var rowErr error
	for i, x := range X {
		if len(x) != m.nFeatures {
			rowErr = fmt.Errorf("hybrid: %w: predict got %d features, want %d",
				lamerr.ErrDimension, len(x), m.nFeatures)
		} else if out[i], rowErr = m.am.Predict(x); rowErr != nil {
			rowErr = fmt.Errorf("hybrid: analytical model: %w", rowErr)
		}
		if rowErr != nil {
			X, out = X[:i], out[:i]
			break
		}
	}
	if err := m.coupleBlock(X, out); err != nil {
		return err
	}
	return rowErr
}

// coupleBlock turns out from the block's analytical column into its
// predictions: one batch call into the ML component, then the mode's
// coupling and the optional aggregate per row, in Predict's operation
// order.
func (m *Model) coupleBlock(X [][]float64, out []float64) error {
	n := len(X)
	if n == 0 {
		return nil
	}
	mlBuf := ml.GetScratch(n)
	defer ml.PutScratch(mlBuf)
	stacked := *mlBuf
	var err error
	if m.cfg.Mode == StackMode {
		p := m.nFeatures + 1
		blk := augBlockPool.Get().(*augBlock)
		defer augBlockPool.Put(blk)
		if cap(blk.flat) < n*p {
			blk.flat = make([]float64, n*p)
		}
		if cap(blk.rows) < n {
			blk.rows = make([][]float64, n)
		}
		blk.flat, blk.rows = blk.flat[:n*p], blk.rows[:n]
		for i, x := range X {
			aug := blk.flat[i*p : (i+1)*p : (i+1)*p]
			copy(aug, x)
			aug[p-1] = out[i]
			blk.rows[i] = aug
		}
		err = ml.PredictBatchInto(m.mlModel, blk.rows, stacked, 1)
	} else {
		err = ml.PredictBatchInto(m.mlModel, X, stacked, 1)
	}
	if err != nil {
		return fmt.Errorf("hybrid: %w", err)
	}
	w := m.cfg.AggregateWeight
	if w == 0 {
		w = 0.5
	}
	for i, amP := range out {
		s := stacked[i]
		switch m.cfg.Mode {
		case ResidualMode:
			s = amP + s
		case RatioMode:
			s = amP * s
		}
		if m.cfg.Aggregate {
			s = w*s + (1-w)*amP
		}
		out[i] = s
	}
	return nil
}

// MAPE evaluates the trained model on a held-out dataset and returns
// the paper's headline metric.
func (m *Model) MAPE(test *dataset.Dataset) (float64, error) {
	return m.MAPECtx(context.Background(), test)
}

// MAPECtx is MAPE with prompt cancellation between row blocks, scored
// on the model's Config.Workers. The prediction buffer is pooled, so
// repeated sweep evaluations do not allocate per call.
func (m *Model) MAPECtx(ctx context.Context, test *dataset.Dataset) (float64, error) {
	buf := ml.GetScratch(test.Len())
	defer ml.PutScratch(buf)
	if err := m.PredictBatchIntoCtx(ctx, test.X, *buf, m.cfg.Workers); err != nil {
		return 0, err
	}
	return ml.MAPE(test.Y, *buf), nil
}

// AnalyticalMAPE scores the analytical model alone on a dataset — the
// paper quotes these untuned baselines (42% for blocked stencil, 84.5%
// for FMM).
func AnalyticalMAPE(ds *dataset.Dataset, am AnalyticalModel) (float64, error) {
	return AnalyticalMAPECtx(context.Background(), ds, am)
}

// AnalyticalMAPECtx is AnalyticalMAPE with prompt cancellation between
// rows; the prediction buffer is pooled.
func AnalyticalMAPECtx(ctx context.Context, ds *dataset.Dataset, am AnalyticalModel) (float64, error) {
	buf := ml.GetScratch(ds.Len())
	defer ml.PutScratch(buf)
	pred := *buf
	err := parallel.ForCtx(ctx, ds.Len(), 0, func(i int) error {
		p, err := am.Predict(ds.X[i])
		if err != nil {
			return err
		}
		pred[i] = p
		return nil
	})
	if err != nil {
		return 0, err
	}
	return ml.MAPE(ds.Y, pred), nil
}
