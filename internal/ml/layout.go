package ml

import (
	"fmt"
	"sync/atomic"
)

// Layout selects the traversal layout of a compiled tree ensemble.
//
// The canonical storage is always the packed implicit-left preorder
// table; the layout chooses which form the prediction paths walk:
//
//   - LayoutImplicitLeft — the default: branchless descent over the
//     packed table itself (one 16-byte record per visited node, the
//     compare result turned into an index mask). Exact.
//   - LayoutStandard — the explicit two-child branchy walk (the PR 3
//     baseline), kept for benchmarking and the CI regression guard.
//     Exact.
//   - LayoutLevelOrder — a depth-bucketed level-order (BFS) table used
//     for tree-major batch striding: a batch walks one level of one
//     tree per pass. Single-row prediction uses the packed walk.
//     Exact.
//   - LayoutQuant16 / LayoutQuant8 — opt-in quantized node tables:
//     thresholds become per-feature affine-coded 16- or 8-bit integers
//     and leaf values float32, shrinking the table ~3.5-4x so large
//     ensembles fit L1/L2. Approximate: a split can only flip for
//     rows within one quantization step of its threshold
//     (feature-range / 65534 or / 254); see quant.go.
//
// Every exact layout produces bit-identical predictions (pinned by
// TestCompiledEquivalence); quantized layouts are pinned by an
// error-bound property test instead.
type Layout int

const (
	// LayoutDefault resolves to the process default (SetDefaultLayout)
	// at apply time.
	LayoutDefault Layout = iota
	// LayoutImplicitLeft is the canonical branchless walk.
	LayoutImplicitLeft
	// LayoutStandard is the explicit-child baseline walk.
	LayoutStandard
	// LayoutLevelOrder is the depth-bucketed batch-striding layout.
	LayoutLevelOrder
	// LayoutQuant16 is the 16-bit quantized table (approximate).
	LayoutQuant16
	// LayoutQuant8 is the 8-bit quantized table (approximate).
	LayoutQuant8
)

// String returns the flag-friendly layout name (ParseLayout inverts it).
func (l Layout) String() string {
	switch l {
	case LayoutDefault:
		return "default"
	case LayoutImplicitLeft:
		return "implicit-left"
	case LayoutStandard:
		return "standard"
	case LayoutLevelOrder:
		return "level-order"
	case LayoutQuant16:
		return "quant16"
	case LayoutQuant8:
		return "quant8"
	default:
		return fmt.Sprintf("Layout(%d)", int(l))
	}
}

// Exact reports whether the layout preserves bit-identical predictions.
func (l Layout) Exact() bool { return l != LayoutQuant16 && l != LayoutQuant8 }

// ParseLayout parses a layout name as accepted by the -layout flags:
// default, implicit-left (alias branchless), standard, level-order,
// quant16, quant8.
func ParseLayout(s string) (Layout, error) {
	switch s {
	case "", "default":
		return LayoutDefault, nil
	case "implicit-left", "branchless":
		return LayoutImplicitLeft, nil
	case "standard":
		return LayoutStandard, nil
	case "level-order":
		return LayoutLevelOrder, nil
	case "quant16":
		return LayoutQuant16, nil
	case "quant8":
		return LayoutQuant8, nil
	default:
		return LayoutDefault, fmt.Errorf("ml: unknown layout %q (want default, implicit-left, standard, level-order, quant16 or quant8)", s)
	}
}

// defaultLayout is the process-wide layout newly compiled ensembles
// adopt (fits and artifact loads alike). Atomic so serving processes
// can retune without a race.
var defaultLayout atomic.Int32

// SetDefaultLayout sets the process-default traversal layout applied
// to every subsequently compiled ensemble. LayoutDefault restores
// LayoutImplicitLeft. Already-compiled ensembles are unaffected; use
// SetLayoutOf for those.
func SetDefaultLayout(l Layout) {
	defaultLayout.Store(int32(l))
}

// DefaultLayout returns the current process-default layout (resolved,
// never LayoutDefault).
func DefaultLayout() Layout {
	if l := Layout(defaultLayout.Load()); l != LayoutDefault {
		return l
	}
	return LayoutImplicitLeft
}

// resolveLayout maps LayoutDefault to the process default.
func resolveLayout(l Layout) Layout {
	if l == LayoutDefault {
		return DefaultLayout()
	}
	return l
}

// SetLayout switches the ensemble to the given traversal layout,
// deriving whatever table it needs from the packed one. Exact layouts
// cannot fail; quantized layouts return an error when the ensemble
// exceeds the 16-bit table's addressing limits (see
// buildQuantEnsemble). Not safe to call concurrently with prediction:
// apply right after Fit/load, before the ensemble is shared.
func (e *CompiledEnsemble) SetLayout(l Layout) error {
	l = resolveLayout(l)
	var (
		explicit *explicitTable
		qt       *quantEnsemble
		err      error
	)
	switch l {
	case LayoutImplicitLeft:
		// The packed table itself.
	case LayoutStandard:
		explicit = buildStdTable(e)
	case LayoutLevelOrder:
		explicit = buildLevelTable(e)
	case LayoutQuant16, LayoutQuant8:
		bits := 16
		if l == LayoutQuant8 {
			bits = 8
		}
		if qt, err = buildQuantEnsemble(e, bits); err != nil {
			return err
		}
	default:
		return fmt.Errorf("ml: unknown layout %d", int(l))
	}
	e.explicit, e.qt = explicit, qt
	e.layout = l
	return nil
}

// Layout returns the ensemble's active traversal layout.
func (e *CompiledEnsemble) Layout() Layout { return e.layout }

// applyDefaultLayout applies the process default at compile time,
// best-effort: a quantized default that does not fit this ensemble
// falls back to the exact implicit-left layout rather than failing the
// fit/load (an explicit SetLayout call still surfaces the error).
func (e *CompiledEnsemble) applyDefaultLayout() {
	if err := e.SetLayout(DefaultLayout()); err != nil {
		// Exact layouts cannot fail, so this can only be an
		// unquantizable ensemble: fall back to the exact default.
		_ = e.SetLayout(LayoutImplicitLeft)
	}
}

// SetLayoutOf applies a traversal layout to a fitted estimator's
// compiled ensemble(s), recursing through the compound estimators
// (Pipeline, Bagging over non-tree bases, Stacking). Estimators with
// no compiled tree plane (LinearRegression, KNN) accept exact layouts
// as a no-op and reject quantized ones — quantization of a mixed
// model is done with Quantize instead, which rebuilds the model
// around a standalone quantized table. Returns lamerr-free plain
// errors; callers surface them verbatim.
func SetLayoutOf(r Regressor, l Layout) error {
	l = resolveLayout(l)
	switch v := r.(type) {
	case *Forest:
		if v.compiled == nil {
			return fmt.Errorf("ml: SetLayoutOf: forest not fitted")
		}
		return v.compiled.SetLayout(l)
	case *GradientBoosting:
		if v.compiled == nil {
			return fmt.Errorf("ml: SetLayoutOf: gradient boosting not fitted")
		}
		return v.compiled.SetLayout(l)
	case *Bagging:
		if v.compiled != nil {
			return v.compiled.SetLayout(l)
		}
		for i, m := range v.models {
			if err := SetLayoutOf(m, l); err != nil {
				return fmt.Errorf("ml: bagging member %d: %w", i, err)
			}
		}
		return nil
	case *Pipeline:
		return SetLayoutOf(v.Model, l)
	case *Stacking:
		for i, b := range v.bases {
			if err := SetLayoutOf(b, l); err != nil {
				return fmt.Errorf("ml: stacking base %d: %w", i, err)
			}
		}
		if v.meta != nil {
			if err := SetLayoutOf(v.meta, l); err != nil {
				return fmt.Errorf("ml: stacking meta: %w", err)
			}
		}
		return nil
	case *QuantizedModel:
		// Already a frozen quantized table; matching layout is a no-op.
		if (l == LayoutQuant16 && v.q.bits == 16) || (l == LayoutQuant8 && v.q.bits == 8) {
			return nil
		}
		return fmt.Errorf("ml: cannot relayout a quantized model (its exact table was dropped)")
	case *DecisionTree:
		// A bare tree has no ensemble table; its canonical walk is
		// already the branchless implicit-left form and the exact
		// layouts coincide on it.
		if l.Exact() {
			return nil
		}
		return fmt.Errorf("ml: cannot quantize a bare DecisionTree in place; use Quantize")
	default:
		if l.Exact() {
			return nil // no tree plane to relayout
		}
		return fmt.Errorf("ml: cannot quantize %T in place; use Quantize", r)
	}
}

// LayoutOf reports the traversal layout of a fitted estimator's
// compiled plane (the first one found on a structural walk), and
// whether the estimator has one at all.
func LayoutOf(r Regressor) (Layout, bool) {
	switch v := r.(type) {
	case *Forest:
		if v.compiled != nil {
			return v.compiled.Layout(), true
		}
	case *GradientBoosting:
		if v.compiled != nil {
			return v.compiled.Layout(), true
		}
	case *Bagging:
		if v.compiled != nil {
			return v.compiled.Layout(), true
		}
		for _, m := range v.models {
			if l, ok := LayoutOf(m); ok {
				return l, true
			}
		}
	case *Pipeline:
		return LayoutOf(v.Model)
	case *Stacking:
		for _, b := range v.bases {
			if l, ok := LayoutOf(b); ok {
				return l, true
			}
		}
		if v.meta != nil {
			return LayoutOf(v.meta)
		}
	case *QuantizedModel:
		if v.q.bits == 8 {
			return LayoutQuant8, true
		}
		return LayoutQuant16, true
	case *DecisionTree:
		if v.IsFitted() {
			return LayoutImplicitLeft, true
		}
	}
	return LayoutDefault, false
}
