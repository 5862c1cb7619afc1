// Package hybrid implements the paper's contribution (Section VI): a
// performance predictor that couples an analytical model with a machine
// learning model through two ensemble devices.
//
//  1. Stacking: the analytical model's prediction is appended to every
//     feature vector and an ML regressor (extra trees by default) is
//     trained on the augmented features, letting it "learn and correct"
//     the analytical model. Stacking is the only coupling: residual
//     and ratio coupling (the Didona et al. alternatives) were retired,
//     and artifacts that carry them are refused at decode
//     (EXPERIMENTS.md § Coupling retirement).
//  2. Bagging-style aggregation (optional): the analytical and stacked
//     predictions are averaged with equal weights, reducing variance
//     when the analytical model is representative of the code. The
//     paper disables this when the analytical model misses whole
//     effects (Fig. 7: a serial AM paired with a multithreaded code).
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
// closed-form performance model. The canonical implementations are the
// workload catalogue's (internal/workload), which read the typed models
// in internal/analytical through each dataset's feature layout and
// allocate nothing per row, so a hybrid's block path stays
// allocation-free end to end. Predict must be safe for concurrent use
// (the models in internal/analytical are pure functions of their
// machine description): batch scoring and the experiment sweeps call it
// from the worker pool. It stays one row per call: what a row costs is
// the model's arithmetic, not the interface dispatch.
type AnalyticalModel interface {
	Predict(x []float64) (float64, error)
}

// AnalyticalFunc adapts a plain function to AnalyticalModel.
type AnalyticalFunc func(x []float64) (float64, error)

// Predict implements AnalyticalModel.
func (f AnalyticalFunc) Predict(x []float64) (float64, error) { return f(x) }

// Config tunes the hybrid model. The zero value reproduces the paper's
// setup: stacking with a standardising extra-trees pipeline and no
// aggregation.
type Config struct {
	// NewML constructs the untrained ML component; nil means a
	// StandardScaler + 100-tree extra-trees pipeline, the paper's
	// best-performing estimator.
	NewML func() ml.Regressor
	// Aggregate enables the bagging-style plain average of the
	// analytical and stacked predictions (paper Fig. 4, "optional").
	Aggregate bool
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
// every training sample with the AM, append its prediction to the
// features, fit the ML component on the augmented set. Cancellation is
// prompt: the context is checked between analytical-model scores and
// threaded into the ML component's fit, so a cancelled training run
// returns a typed error (wrapping lamerr.ErrCancelled and ctx.Err())
// within one unit's duration.
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

	aug, err := train.WithFeature("__analytical", amPred)
	if err != nil {
		return nil, err
	}
	mlModel := cfg.newML()
	if err := ml.FitCtx(ctx, mlModel, aug.X, aug.Y); err != nil {
		return nil, err
	}
	return &Model{cfg: cfg, am: am, mlModel: mlModel, nFeatures: train.NumFeatures()}, nil
}

// NumFeatures returns the feature arity the model was trained on (the
// raw vector, without the stacked analytical feature).
func (m *Model) NumFeatures() int { return m.nFeatures }

// Config returns the configuration the model was trained (or loaded)
// with. The online retrainer uses it to rebuild a drifted model with
// the same aggregation as the deployed artifact — persistence stores
// Aggregate, so a registry-loaded model round-trips it exactly. NewML,
// Seed and Workers are not persisted; a zero NewML retrains with the
// default extra-trees pipeline.
func (m *Model) Config() Config { return m.cfg }

// IsFitted reports whether the model carries a trained ML component.
func (m *Model) IsFitted() bool { return m != nil && m.mlModel != nil }

// Predict scores one feature vector: run the AM, stack its prediction
// onto the features for the ML component, optionally aggregate.
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
	// The augmented vector lives in pooled scratch: the serve hot path
	// calls Predict per row and must not allocate per row.
	buf := ml.GetScratch(len(x) + 1)
	aug := *buf
	copy(aug, x)
	aug[len(x)] = amP
	s := m.mlModel.Predict(aug)
	ml.PutScratch(buf)
	return m.couple(s, amP), nil
}

// couple finishes one row from its stacked prediction s and analytical
// prediction amP: the plain average under Aggregate, s otherwise.
func (m *Model) couple(s, amP float64) float64 {
	if m.cfg.Aggregate {
		return 0.5*s + 0.5*amP
	}
	return s
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

// PredictBatchIntoCtx scores every row of X into out (which must have
// len(X) elements) with prompt cancellation between row blocks: the one
// batch path, behind registry batch prediction, lam-serve and the
// experiment sweeps. Rows are taken ml.BatchBlock at a time, the block
// internal/ml's batch path uses, so one block here is one sequential
// tree-major walk there. Each block is scored as a block — the
// analytical column once, one batch call into the ML component, then
// the optional aggregate per row in Predict's operation order — so the
// result is bit-identical to len(X) sequential Predict calls for every
// worker count, and the ML component's tree-major kernel is reached
// from every caller. workers bounds the block fan-out (<= 0 means
// GOMAXPROCS), as in ml.PredictBatchIntoCtx; it is resolved over the
// number of blocks, so up to one block (an /observe batch, a coalescer
// drain) — or any batch at workers == 1 — runs inline on the caller's
// goroutine and, given an allocation-free analytical model, performs
// zero steady-state allocations. A sequential batch the ML component
// routes (ml.Routes) is one block: the analytical column is computed
// for every row into pooled scratch, and the stacked rows go to the
// routed kernel whole (ml.PredictStackedIntoCtx), which polls ctx
// before it starts and between trees; out is written only as the rows
// are coupled.
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
	blocks := (len(X) + ml.BatchBlock - 1) / ml.BatchBlock
	if parallel.Resolve(workers, blocks) > 1 {
		return parallel.ForCtx(ctx, blocks, workers, func(b int) error {
			lo := b * ml.BatchBlock
			hi := min(lo+ml.BatchBlock, len(X))
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
	if ml.Routes(m.mlModel, len(X)) {
		return m.predictRouted(ctx, X, out)
	}
	for lo := 0; lo < len(X); lo += ml.BatchBlock {
		select {
		case <-done:
			return parallel.Cancelled(ctx.Err())
		default:
		}
		hi := min(lo+ml.BatchBlock, len(X))
		if err := m.predictBlock(X[lo:hi], out[lo:hi]); err != nil {
			return err
		}
	}
	return nil
}

// augBlock is the pooled block a batch's rows are augmented into: one
// flat backing array and the row views over it. The views point only
// into flat, so a pooled block keeps no caller's rows alive, and it
// holds at most ml.BatchBlock rows.
type augBlock struct {
	flat []float64
	rows [][]float64
}

var augBlockPool = sync.Pool{New: func() any { return new(augBlock) }}

// predictBlock scores one block of at most ml.BatchBlock rows into out.
// The analytical column is computed first, into out itself; if row k
// fails, the rows before it are still scored and row k's error — the
// text Predict gives it — is returned.
func (m *Model) predictBlock(X [][]float64, out []float64) error {
	k, rowErr := m.analytical(X, out)
	if err := m.coupleBlock(X[:k], out[:k]); err != nil {
		return err
	}
	return rowErr
}

// predictRouted scores a batch the ML component routes, as one block:
// the analytical column into pooled scratch, the stacked rows through
// the routed kernel into out, then the optional aggregate per row in
// Predict's operation order. If row k fails, the rows before it are
// still scored and row k's error is returned, as in predictBlock.
func (m *Model) predictRouted(ctx context.Context, X [][]float64, out []float64) error {
	buf := ml.GetScratch(len(X))
	defer ml.PutScratch(buf)
	am := *buf
	k, rowErr := m.analytical(X, am)
	if err := ml.PredictStackedIntoCtx(ctx, m.mlModel, X[:k], am[:k], out[:k]); err != nil {
		return fmt.Errorf("hybrid: %w", err)
	}
	for i, amP := range am[:k] {
		out[i] = m.couple(out[i], amP)
	}
	return rowErr
}

// analytical writes the analytical model's score of each row of X into
// am until a row fails: it returns how many rows it scored and, for a
// failing row, the error Predict gives it.
func (m *Model) analytical(X [][]float64, am []float64) (int, error) {
	for i, x := range X {
		var err error
		if len(x) != m.nFeatures {
			err = fmt.Errorf("hybrid: %w: predict got %d features, want %d",
				lamerr.ErrDimension, len(x), m.nFeatures)
		} else if am[i], err = m.am.Predict(x); err != nil {
			err = fmt.Errorf("hybrid: analytical model: %w", err)
		}
		if err != nil {
			return i, err
		}
	}
	return len(X), nil
}

// coupleBlock turns out from the block's analytical column into its
// predictions: one batch call into the ML component over the augmented
// rows, then the optional aggregate per row, in Predict's operation
// order.
func (m *Model) coupleBlock(X [][]float64, out []float64) error {
	n := len(X)
	if n == 0 {
		return nil
	}
	mlBuf := ml.GetScratch(n)
	defer ml.PutScratch(mlBuf)
	stacked := *mlBuf
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
	if err := ml.PredictBatchInto(m.mlModel, blk.rows, stacked, 1); err != nil {
		return fmt.Errorf("hybrid: %w", err)
	}
	for i, amP := range out {
		out[i] = m.couple(stacked[i], amP)
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
