package lam

// The context-first API: one entry point per operation. Everything
// here takes a context.Context and returns typed sentinel errors.
// Three pieces:
//
//   - Predictor, the unified prediction interface implemented by
//     hybrid models (HybridPredictor), ML pipelines and every other
//     fitted regressor (MLPredictor), and registry-loaded models
//     (Registry.Load) — one shape for the library, the experiment
//     harness and the lam-serve HTTP service;
//   - the sentinel errors (ErrCancelled, ErrUnknownMachine, …) every
//     layer wraps, matchable with errors.Is;
//   - Registry, versioned on-disk model storage with metadata, the
//     storage backend of cmd/lam-serve.
//
// Cancellation is prompt everywhere: contexts are re-checked between
// independent units (trees, trials, folds, prediction rows), so a
// cancelled sweep or fit returns within one unit's duration, and the
// returned error wraps both ErrCancelled and ctx.Err().

import (
	"context"

	"lam/internal/experiments"
	"lam/internal/hybrid"
	"lam/internal/lamerr"
	"lam/internal/ml"
	"lam/internal/registry"
)

// Typed sentinel errors. Every error returned by this module that
// represents one of these failure classes wraps the corresponding
// sentinel; match with errors.Is.
var (
	// ErrCancelled class-tags context cancellation; such errors also
	// wrap the concrete ctx.Err().
	ErrCancelled = lamerr.ErrCancelled
	// ErrUnknownMachine tags unknown machine-preset names.
	ErrUnknownMachine = lamerr.ErrUnknownMachine
	// ErrUnknownWorkload tags unknown canonical dataset names.
	ErrUnknownWorkload = lamerr.ErrUnknownWorkload
	// ErrUnknownFigure tags figure ids outside FigureIDs().
	ErrUnknownFigure = lamerr.ErrUnknownFigure
	// ErrNotFitted tags predictions against untrained models.
	ErrNotFitted = lamerr.ErrNotFitted
	// ErrDimension tags feature vectors of the wrong arity.
	ErrDimension = lamerr.ErrDimension
	// ErrUnknownModel tags registry names/versions that do not exist.
	ErrUnknownModel = lamerr.ErrUnknownModel
	// ErrCorruptArtifact tags model artifacts that fail integrity or
	// structural validation on load (bad magic, truncation, checksum
	// mismatch); corrupt artifacts always error, never panic.
	ErrCorruptArtifact = lamerr.ErrCorruptArtifact
)

// Predictor is the unified v2 prediction interface: context-first,
// error-returning, batch-capable. Hybrid models, fitted ML regressors
// and registry-loaded models all serve through it, and the batch path
// is bit-identical to sequential Predict calls for every worker count.
type Predictor interface {
	// Predict scores one feature vector.
	Predict(ctx context.Context, x []float64) (float64, error)
	// PredictBatch scores every row of X, with prompt cancellation
	// between rows.
	PredictBatch(ctx context.Context, X [][]float64) ([]float64, error)
}

// HybridPredictor adapts a trained hybrid model to the Predictor
// interface.
func HybridPredictor(m *HybridModel) Predictor { return hybridPredictor{m} }

type hybridPredictor struct{ m *hybrid.Model }

func (p hybridPredictor) Predict(ctx context.Context, x []float64) (float64, error) {
	return p.m.PredictCtx(ctx, x)
}

func (p hybridPredictor) PredictBatch(ctx context.Context, X [][]float64) ([]float64, error) {
	out := make([]float64, len(X))
	if err := p.m.PredictBatchIntoCtx(ctx, X, out, 0); err != nil {
		return nil, err
	}
	return out, nil
}

// MLPredictor adapts a fitted ML regressor (pipelines, forests, any
// Regressor) to the Predictor interface. Unlike Regressor.Predict,
// which panics on misuse, the adapter returns ErrNotFitted and
// ErrDimension.
func MLPredictor(r Regressor) Predictor { return regressorPredictor{r} }

type regressorPredictor struct{ r ml.Regressor }

func (p regressorPredictor) Predict(ctx context.Context, x []float64) (float64, error) {
	return ml.PredictCtx(ctx, p.r, x)
}

func (p regressorPredictor) PredictBatch(ctx context.Context, X [][]float64) ([]float64, error) {
	out := make([]float64, len(X))
	if err := ml.PredictBatchIntoCtx(ctx, p.r, X, out, 0); err != nil {
		return nil, err
	}
	return out, nil
}

// Registry is versioned on-disk model storage and the one way to
// persist a model: each save allocates a new immutable version holding
// the lamb1 artifact plus metadata (workload, machine, train size,
// test MAPE, created-at), and Load restores it — a hybrid with its
// analytical model rebuilt from that metadata. It backs the lam-serve
// prediction service.
type Registry = registry.Registry

// ModelMeta describes one stored model version.
type ModelMeta = registry.Meta

// RegistryModel is a loaded registry version; it implements Predictor.
type RegistryModel = registry.Model

// OpenRegistry opens (creating if necessary) a model registry rooted
// at dir.
func OpenRegistry(dir string) (*Registry, error) { return registry.Open(dir) }

// ValidModelName reports whether name is a legal registry model name;
// check it before a long training run that ends in a registry save.
func ValidModelName(name string) bool { return registry.ValidName(name) }

// TrainHybridCtx trains the paper's hybrid model on a training dataset,
// with prompt cancellation: the context is checked between
// analytical-model scores and threaded through the ML component's tree
// fits.
func TrainHybridCtx(ctx context.Context, train *Dataset, am AnalyticalModel, cfg HybridConfig) (*HybridModel, error) {
	return hybrid.TrainCtx(ctx, train, am, cfg)
}

// FitCtx fits a regressor with prompt cancellation when the estimator
// supports it (every ensemble in this module does); otherwise the
// context is checked once up front.
func FitCtx(ctx context.Context, r Regressor, X [][]float64, y []float64) error {
	return ml.FitCtx(ctx, r, X, y)
}

// PredictBatchIntoCtx applies a fitted regressor to every row of X,
// writing into a caller-owned slice (len(out) == len(X)) with prompt
// cancellation between row blocks — the serve-grade hot path:
// tree-based estimators run compiled, allocation-free flat node-table
// walks (see README §Inference internals). MLPredictor(r).PredictBatch
// is the allocating form.
func PredictBatchIntoCtx(ctx context.Context, r Regressor, X [][]float64, out []float64) error {
	return ml.PredictBatchIntoCtx(ctx, r, X, out, 0)
}

// AnalyticalMAPECtx scores an analytical model alone against a dataset,
// with prompt cancellation between rows.
func AnalyticalMAPECtx(ctx context.Context, ds *Dataset, am AnalyticalModel) (float64, error) {
	return hybrid.AnalyticalMAPECtx(ctx, ds, am)
}

// FigureCtx regenerates one of the paper's figures: "fig3a", "fig3b",
// "fig5", "fig6", "fig7", "fig8" (see EXPERIMENTS.md §Figures), with
// prompt cancellation between the sweep's (fraction, repetition)
// trials: a cancelled figure returns a typed error (wrapping
// ErrCancelled and ctx.Err()) within one trial's duration.
func FigureCtx(ctx context.Context, id string, opts FigureOptions) (*Report, error) {
	return experiments.RunCtx(ctx, id, opts)
}

// FiguresCtx regenerates several figures concurrently on the worker
// pool and returns the reports in input order; the output matches
// len(ids) sequential FigureCtx calls exactly. Cancellation is threaded
// through every figure's sweep.
func FiguresCtx(ctx context.Context, ids []string, opts FigureOptions) ([]*Report, error) {
	return experiments.RunManyCtx(ctx, ids, opts)
}

// NoiseSensitivityCtx runs the extension experiment sweeping simulator
// noise levels (see EXPERIMENTS.md §Extensions), with prompt
// cancellation.
func NoiseSensitivityCtx(ctx context.Context, opts FigureOptions, noiseLevels []float64) (*Report, error) {
	return experiments.NoiseSensitivityCtx(ctx, opts, noiseLevels)
}

// HardwareTransferCtx runs the extension experiment measuring accuracy
// per re-measurement budget after a machine change (see EXPERIMENTS.md
// §Extensions), with prompt cancellation.
func HardwareTransferCtx(ctx context.Context, opts FigureOptions, target *Machine, budgets []float64) (*Report, error) {
	return experiments.HardwareTransferCtx(ctx, opts, target, budgets)
}
