package registry

import (
	"context"
	"fmt"

	"lam/internal/hybrid"
	"lam/internal/lamerr"
	"lam/internal/ml"
)

// Model is one loaded registry version, ready to serve. It satisfies
// the facade's context-first Predictor interface, and its batch path is
// bit-identical to calling the underlying library model directly —
// there is exactly one prediction code path, shared by the library, the
// registry and lam-serve.
type Model struct {
	// Meta is the stored metadata of the loaded version.
	Meta Meta

	hybrid    *hybrid.Model
	regressor ml.Regressor
	// Workers bounds batch-prediction parallelism for both model
	// kinds; <= 0 means GOMAXPROCS. A loaded artifact carries no worker
	// count of its own, so this field is the only knob.
	Workers int
}

// Hybrid returns the underlying hybrid model, or nil for regressor
// artifacts.
func (m *Model) Hybrid() *hybrid.Model { return m.hybrid }

// Regressor returns the underlying ML regressor, or nil for hybrid
// artifacts.
func (m *Model) Regressor() ml.Regressor { return m.regressor }

// Predict scores one feature vector.
func (m *Model) Predict(ctx context.Context, x []float64) (float64, error) {
	if m.hybrid != nil {
		return m.hybrid.PredictCtx(ctx, x)
	}
	if m.regressor == nil {
		return 0, fmt.Errorf("registry: %w", lamerr.ErrNotFitted)
	}
	return ml.PredictCtx(ctx, m.regressor, x)
}

// PredictBatch scores every row of X with prompt cancellation between
// rows; the output is bit-identical to len(X) sequential Predict calls
// for every worker count.
func (m *Model) PredictBatch(ctx context.Context, X [][]float64) ([]float64, error) {
	out := make([]float64, len(X))
	if err := m.PredictBatchInto(ctx, X, out); err != nil {
		return nil, err
	}
	return out, nil
}

// PredictBatchInto scores every row of X into out (which must have
// len(X) elements): the allocation-free path lam-serve feeds its
// pooled response buffers through. Loaded artifacts decode straight
// into compiled flat node tables, so with Workers == 1 a regressor —
// and a hybrid whose analytical model is allocation-free — performs
// zero allocations per call in steady state.
func (m *Model) PredictBatchInto(ctx context.Context, X [][]float64, out []float64) error {
	if m.hybrid != nil {
		return m.hybrid.PredictBatchIntoCtx(ctx, X, out, m.Workers)
	}
	if m.regressor == nil {
		return fmt.Errorf("registry: %w", lamerr.ErrNotFitted)
	}
	return ml.PredictBatchIntoCtx(ctx, m.regressor, X, out, m.Workers)
}
