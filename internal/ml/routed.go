package ml

import (
	"context"
	"fmt"
	"math"
	"sync"

	"lam/internal/lamerr"
	"lam/internal/parallel"
)

// The routed batch kernel: the compiled plane's third walk. The
// row-major and tree-major walks take every row down every tree as a
// chain of dependent loads, about 7 cycles a visited node (EXPERIMENTS.md
// § Batch budget). A batch with many rows per node of the average tree
// — a held-out set scored by a model fitted on a few percent of its
// dataset — is instead written once, column-major, and each tree
// partitions an index array of its rows down the tree: a split streams
// through the rows that reach it, a leaf adds its value to each of
// them, and a subtree no row reaches is never visited. The rows fold
// the trees in tree order into one accumulator each and are divided by
// the tree count once, so every result is bit-identical to the walks'.

// routeMinRowsPerNode is the one rule between routing and walking: a
// sequential batch is routed when it has at least this many rows per
// node of the ensemble's average tree. The kernels cross near one row
// per node, where a partition's per-node work (a frame, a column, a
// loop) costs what the walks it saves cost; from two the routed one was
// as fast or faster on every fit size measured, from four about twice
// as fast (EXPERIMENTS.md § Routed held-out scoring). At one row per
// node the routed kernel still lost on some fits (fmm on 554 rows,
// 1.07 of the walk's time), so the rule stays at two. A 256-row block
// of a model fitted on more than 64 rows stays on the walk.
const routeMinRowsPerNode = 2

// routes reports whether an n-row sequential batch is routed through e
// rather than walked.
func (e *CompiledEnsemble) routes(n int) bool {
	return n <= math.MaxInt32 && n*len(e.roots) >= routeMinRowsPerNode*len(e.hot)
}

// router is implemented by the estimators the routed kernel scores
// whole: a forest, whose ensemble reads the rows as they are, and a
// pipeline over one, whose ensemble reads them standardised by its
// scaler (nil for none).
type router interface {
	routed() (*CompiledEnsemble, *StandardScaler)
}

func (f *Forest) routed() (*CompiledEnsemble, *StandardScaler) { return f.compiled, nil }

func (p *Pipeline) routed() (*CompiledEnsemble, *StandardScaler) {
	if in, ok := p.Model.(router); ok {
		if e, s := in.routed(); s == nil {
			return e, &p.scaler
		}
	}
	return nil, nil
}

// routedEnsemble returns the ensemble and scaler through which a fitted
// r scores an n-row sequential batch routed, or a nil ensemble when the
// batch is walked.
func routedEnsemble(r Regressor, n int) (*CompiledEnsemble, *StandardScaler) {
	if rt, ok := r.(router); ok {
		if e, s := rt.routed(); e != nil && e.routes(n) {
			return e, s
		}
	}
	return nil, nil
}

// Routes reports whether the fitted r scores an n-row sequential batch
// with the routed kernel, so a caller that stacks a column onto its
// rows (the hybrid) hands such a batch to PredictStackedIntoCtx whole.
func Routes(r Regressor, n int) bool {
	e, _ := routedEnsemble(r, n)
	return e != nil
}

// PredictStackedIntoCtx scores every row of X, with stacked[i]
// appended to row i as its last feature, into out as one routed batch
// through r's ensemble, on the calling goroutine. It is the hybrid's
// path for a batch r routes (see Routes): the stacked rows are written
// straight into the kernel's columns, never assembled as rows. ctx is
// polled before the batch starts and between trees; a cancelled batch
// returns the typed cancellation error and leaves out untouched.
func PredictStackedIntoCtx(ctx context.Context, r Regressor, X [][]float64, stacked, out []float64) error {
	if !Fitted(r) {
		return fmt.Errorf("ml: %w", lamerr.ErrNotFitted)
	}
	var e *CompiledEnsemble
	var s *StandardScaler
	if rt, ok := r.(router); ok {
		e, s = rt.routed()
	}
	if e == nil {
		return fmt.Errorf("ml: %T has no routed batch path", r)
	}
	if len(stacked) != len(X) || len(out) != len(X) {
		return fmt.Errorf("ml: %w: %d stacked values and %d outputs for %d rows", lamerr.ErrDimension, len(stacked), len(out), len(X))
	}
	if want, ok := NumFeaturesOf(r); ok {
		for i, x := range X {
			if len(x)+1 != want {
				return fmt.Errorf("ml: row %d: %w: got %d features and a stacked one, want %d", i, lamerr.ErrDimension, len(x), want)
			}
		}
	}
	var done <-chan struct{}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return parallel.Cancelled(err)
		}
		done = ctx.Done()
	}
	if !e.predictRouted(done, s, X, stacked, out) {
		return parallel.Cancelled(ctx.Err())
	}
	return nil
}

// routeFrame is a subtree still to be routed: node i and the rows that
// reach it, range [lo, hi) of the given half of the index.
type routeFrame struct{ i, lo, hi, half int32 }

// routeScratch is a routed batch's pooled working memory: the batch
// column-major (feature j of row r at cols[j*n+r]), the two halves of
// the row index the trees partition, the per-row accumulators and the
// frame stack. It holds numbers only, never a caller's row.
type routeScratch struct {
	cols  []float64
	acc   []float64
	idx   []int32
	stack []routeFrame
}

var routeScratchPool = sync.Pool{New: func() any { return new(routeScratch) }}

// grow returns s[:n], reallocated when too short with a quarter more
// room than s had (an empty s grows to exactly n): the held-out sets a
// sweep scores grow by a few percent from one fraction to the next, so
// a pooled scratch that scored one takes the next rather than regrow
// at each.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, max(n, cap(s)+cap(s)/4))
	}
	return s[:n]
}

// predictRouted scores the rows of X — each extended by stacked[i]
// when stacked is non-nil, and standardised by sc when it is non-nil —
// into out with the routed kernel. done is polled between trees; it
// reports false, with out untouched, when done closed first.
func (e *CompiledEnsemble) predictRouted(done <-chan struct{}, sc *StandardScaler, X [][]float64, stacked, out []float64) bool {
	n := len(X)
	if n == 0 {
		return true
	}
	p := len(X[0])
	if stacked != nil {
		p++
	}
	s := routeScratchPool.Get().(*routeScratch)
	defer routeScratchPool.Put(s)
	s.cols, s.acc, s.idx = grow(s.cols, n*p), grow(s.acc, n), grow(s.idx, 2*n)
	writeColumns(s.cols, sc, X, stacked)
	for r := range s.acc {
		s.idx[r] = int32(r)
		s.acc[r] = 0
	}
	for _, root := range e.roots {
		select {
		case <-done:
			return false
		default:
		}
		s.stack = routeTree(e.hot, root, s.cols, s.idx, s.acc, s.stack)
	}
	trees := float64(len(e.roots))
	for r, a := range s.acc {
		out[r] = a / trees
	}
	return true
}

// writeColumns writes the rows of X, each extended by stacked[i] when
// stacked is non-nil, column-major into cols, standardised by sc with
// Pipeline.Predict's arithmetic when sc is non-nil.
func writeColumns(cols []float64, sc *StandardScaler, X [][]float64, stacked []float64) {
	n := len(X)
	for r, x := range X {
		for j, v := range x {
			cols[j*n+r] = v
		}
	}
	if stacked != nil {
		copy(cols[len(X[0])*n:], stacked)
	}
	if sc == nil {
		return
	}
	for j := range len(cols) / n {
		col, m, d := cols[j*n:(j+1)*n], sc.mean[j], sc.std[j]
		for r, v := range col {
			col[r] = (v - m) / d
		}
	}
}

// routeTree adds the leaf value tree root of hot gives each row to its
// accumulator. Rows are partitioned depth first down the tree: at a
// split the rows that reach it are copied from one half of idx into
// the same range of the other, those whose feature is <= the threshold
// (hotStep's rule, so NaN goes right) from the front and the others
// from the back, and each non-empty side descends to its child, the
// right side through the frame stack, which it returns for reuse. A
// leaf copies its rows back to the first half, so the next tree starts
// from a whole permutation there.
func routeTree(hot []hotNode, root int32, cols []float64, idx []int32, acc []float64, stack []routeFrame) []routeFrame {
	n := len(acc)
	halves := [2][]int32{idx[:n:n], idx[n:]}
	stack = append(stack[:0], routeFrame{root, 0, int32(n), 0})
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		i, lo, hi, h := f.i, f.lo, f.hi, f.half
		for {
			nd := hot[i]
			rows := halves[h][lo:hi]
			if nd.feature < 0 {
				for _, r := range rows {
					acc[r] += nd.threshold
				}
				if h != 0 {
					copy(halves[0][lo:hi], rows)
				}
				break
			}
			col := cols[int(nd.feature)*n:][:n]
			dst := halves[h^1][lo:hi]
			// Each row is stored at both ends of the gap still unfilled
			// and only its own side's end moves on, so the stray copy
			// lands where a later row, or the row itself, is stored:
			// no branch, and no load of the destination.
			l, r := 0, len(dst)-1
			for _, row := range rows {
				left := int(b2i32(col[row] <= nd.threshold))
				dst[l] = row
				dst[r] = row
				l += left
				r -= 1 - left
			}
			m := lo + int32(l)
			h ^= 1
			switch {
			case m == lo:
				i = nd.right
			case m == hi:
				i++
			default:
				stack = append(stack, routeFrame{nd.right, m, hi, h})
				i, hi = i+1, m
			}
		}
	}
	return stack
}
