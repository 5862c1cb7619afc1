package lam

import "lam/internal/ml"

// Layout selects the traversal layout of compiled tree ensembles — the
// raw-speed knob of the inference plane. See internal/ml's Layout for
// the full taxonomy; in short:
//
//   - LayoutImplicitLeft (default): branchless descent over the
//     canonical implicit-left preorder table. Exact.
//   - LayoutStandard: the explicit two-child branchy walk, kept as the
//     benchmarking baseline. Exact.
//   - LayoutLevelOrder: depth-bucketed level-order table for tree-major
//     batch striding. Exact.
//   - LayoutQuant16 / LayoutQuant8: opt-in quantized node tables, ~3.5-4x
//     smaller, approximate within one quantization step per split.
type Layout = ml.Layout

// Re-exported layout constants; see Layout.
const (
	LayoutDefault      = ml.LayoutDefault
	LayoutImplicitLeft = ml.LayoutImplicitLeft
	LayoutStandard     = ml.LayoutStandard
	LayoutLevelOrder   = ml.LayoutLevelOrder
	LayoutQuant16      = ml.LayoutQuant16
	LayoutQuant8       = ml.LayoutQuant8
)

// ParseLayout parses a -layout flag value: default, implicit-left
// (alias branchless), standard, level-order, quant16, quant8.
func ParseLayout(s string) (Layout, error) { return ml.ParseLayout(s) }

// SetDefaultLayout sets the process-default traversal layout applied to
// every subsequently compiled ensemble (fits and artifact loads alike).
// LayoutDefault restores LayoutImplicitLeft.
func SetDefaultLayout(l Layout) { ml.SetDefaultLayout(l) }

// DefaultLayout returns the current process-default layout.
func DefaultLayout() Layout { return ml.DefaultLayout() }

// SetLayoutOf applies a traversal layout to a fitted estimator's
// compiled tree plane(s), recursing through compound estimators. Not
// concurrency-safe with prediction: apply right after fitting/loading,
// before the model is shared.
func SetLayoutOf(r Regressor, l Layout) error { return ml.SetLayoutOf(r, l) }

// LayoutOf reports the traversal layout of a fitted estimator's
// compiled tree plane, and whether it has one.
func LayoutOf(r Regressor) (Layout, bool) { return ml.LayoutOf(r) }

// Quantize converts a fitted tree-based regressor into a frozen
// serving-only model with bits-wide (8 or 16) integer thresholds and
// float32 leaves — a ~3.5-4x smaller node table. The result is
// approximate (within one quantization step per split) and cannot be
// refitted; publish it as a new artifact version, never over the exact
// model. The source model is not modified.
func Quantize(r Regressor, bits int) (Regressor, error) { return ml.Quantize(r, bits) }
