package ml

import (
	"context"
	"sync"
)

// Tables is reusable memory for fits whose models live only as long as
// one call: the trials of a sweep, which fit, score their held-out rows
// and keep nothing but the score. Such a fit (FitScore) borrows all it
// works in from the Tables and hands it back once the model is
// unfitted: the walk table its trees grow into, a lease of per-fit
// memory (the column view, the row classes, the members and their
// importances) and the tree builders' scratch. A sweep therefore allocates that memory per
// fit in flight instead of one per fit. The zero value is ready and
// holds none; dropping a Tables drops all of it. It is safe for
// concurrent use, and it holds at most as many tables and leases as
// fits ever ran on it at once, and as many builders as trees grew at
// once.
//
// The table list ratchets to the largest table asked for so far: a
// request past it lets go of every table it holds, and a table handed
// back smaller than it is let go too, so every table kept fits every
// request yet seen. A sweep that fits its largest training sets first
// allocates each of its tables once. A lease's buffers grow to the
// largest fit that used them and are never shrunk; a fit touches only
// the part it uses.
type Tables struct {
	mu       sync.Mutex
	free     [][]hotNode
	high     int // the most records any fit asked for
	leases   []*lease
	builders []*treeBuilder
}

// take returns a table of n records, reused when the list holds one and
// otherwise made as large as the high-water mark, so that a fit's
// table, like the ones kept, fits every request yet seen. Its records
// are stale: a fit writes every one it reads.
func (tb *Tables) take(n int) []hotNode {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	if n > tb.high {
		tb.high = n
		clear(tb.free)
		tb.free = tb.free[:0]
	}
	if k := len(tb.free) - 1; k >= 0 {
		h := tb.free[k]
		tb.free[k] = nil
		tb.free = tb.free[:k]
		return h[:n]
	}
	return make([]hotNode, n, tb.high)
}

// give hands a table back to the list, or lets it go when it is below
// the high-water mark.
func (tb *Tables) give(h []hotNode) {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	if cap(h) >= tb.high {
		tb.free = append(tb.free, h[:0])
	}
}

// lease lends one FitScore call its per-fit memory, reused from the
// list when it holds one.
func (tb *Tables) lease() *lease {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	if k := len(tb.leases) - 1; k >= 0 {
		l := tb.leases[k]
		tb.leases[k], tb.leases = nil, tb.leases[:k]
		return l
	}
	return &lease{tb: tb}
}

// release hands back the tables l took and l itself. The members are
// cleared, so a lease on the list reaches no model and no table the
// list let go.
func (tb *Tables) release(l *lease) {
	for _, h := range l.taken {
		tb.give(h)
	}
	clear(l.taken)
	clear(l.slab)
	clear(l.trees)
	l.taken = l.taken[:0]
	tb.mu.Lock()
	defer tb.mu.Unlock()
	tb.leases = append(tb.leases, l)
}

// lease is one FitScore call's claim on its Tables: the tables its fit
// took, all handed back once the model is unfitted, and the fit's own
// working memory, which goes back on the list with it. Every buffer is
// resliced to what the fit asks for; a fit writes every element it
// reads, and the importances, which a fit accumulates, are cleared when
// lent. A nil lease is a kept model's fit: each method then allocates
// what it returns, to exact size.
type lease struct {
	tb    *Tables
	taken [][]hotNode

	flat         []float64 // the column view's block
	cols         [][]float64
	class, order []int
	bounds       []int
	slab         []DecisionTree
	trees        []*DecisionTree
	imps         []float64
	slots, sizes []int32
}

// table takes a table of n records for the fit in progress.
func (l *lease) table(n int) []hotNode {
	h := l.tb.take(n)
	l.taken = append(l.taken, h)
	return h
}

// columns returns the column view of the validated design matrix X
// (see columnView), written into the lease's block. The fit owns it and
// may write it: a pipeline standardises it in place.
func (l *lease) columns(X [][]float64) [][]float64 {
	n, p := len(X), len(X[0])
	l.flat, l.cols = grow(l.flat, n*p), grow(l.cols, p)
	return fillColumns(l.flat, l.cols, X)
}

// rowScratch returns the n-row class labels and sort order rowClasses
// fills.
func (l *lease) rowScratch(n int) (class, order []int) {
	if l == nil {
		return make([]int, n), make([]int, n)
	}
	l.class, l.order = grow(l.class, n), grow(l.order, n)
	return l.class, l.order
}

// members returns an nTrees-tree forest's node bounds, member slab and
// member pointers.
func (l *lease) members(nTrees int) (bounds []int, slab []DecisionTree, trees []*DecisionTree) {
	if l == nil {
		return make([]int, nTrees), make([]DecisionTree, nTrees), make([]*DecisionTree, nTrees)
	}
	l.bounds, l.slab, l.trees = grow(l.bounds, nTrees), grow(l.slab, nTrees), grow(l.trees, nTrees)
	return l.bounds, l.slab, l.trees
}

// importances returns n zeroed importances for the members to
// accumulate into.
func (l *lease) importances(n int) []float64 {
	if l == nil {
		return make([]float64, n)
	}
	l.imps = grow(l.imps, n)
	clear(l.imps)
	return l.imps
}

// layout returns an nTrees-tree growth's slot starts and grown sizes.
func (l *lease) layout(nTrees int) (slots, sizes []int32) {
	if l == nil {
		return make([]int32, nTrees), make([]int32, nTrees)
	}
	l.slots, l.sizes = grow(l.slots, nTrees), grow(l.sizes, nTrees)
	return l.slots, l.sizes
}

// builder lends a tree builder: one the Tables holds for a leased fit,
// the pool's otherwise. Hand it back with putBuilder.
func (l *lease) builder() *treeBuilder {
	if l == nil {
		return treeBuilderPool.Get().(*treeBuilder)
	}
	tb := l.tb
	tb.mu.Lock()
	defer tb.mu.Unlock()
	if k := len(tb.builders) - 1; k >= 0 {
		b := tb.builders[k]
		tb.builders[k], tb.builders = nil, tb.builders[:k]
		return b
	}
	return newTreeBuilder()
}

// putBuilder hands back a builder holding nothing of the fit it served
// but its own scratch.
func (l *lease) putBuilder(b *treeBuilder) {
	b.cols, b.y, b.importances, b.out = nil, nil, nil, nil
	if l == nil {
		treeBuilderPool.Put(b)
		return
	}
	tb := l.tb
	tb.mu.Lock()
	defer tb.mu.Unlock()
	tb.builders = append(tb.builders, b)
}

// leasedFitter is implemented by the estimators whose fit grows walk
// tables, and by a Pipeline. fitColumns fits over the column view of a
// validated design matrix (see columnView), which it may write. It is
// the estimator's one fit body: FitCtx (Fit for a DecisionTree) calls
// it with a nil lease on a fresh view, allocating the exact memory a
// kept model needs, and FitScore with a lease on its Tables and the
// view in the lease. unfit returns the estimator to its unfitted
// state, dropping every reference its fit made.
type leasedFitter interface {
	fitColumns(ctx context.Context, cols [][]float64, y []float64, l *lease) error
	unfit()
}

// FitScore fits r on (X, y), calls score, and unfits r before it
// returns, so r holds nothing of the fit afterwards: FitScore is for a
// model scored once and dropped, and score must not keep r or anything
// it reaches. The estimators of this package (and a Pipeline over one)
// grow their walk tables from tb, skipping the exact-size copy a kept
// model gets, borrow all their other fit memory from it, and hand it
// all back once unfitted; any other regressor is fitted with FitCtx and left as
// it is. ctx reaches the fit as FitCtx passes it, and a fit that fails
// returns its error without calling score. The fitted model is the one
// FitCtx would fit, so score sees its predictions bit for bit.
func (tb *Tables) FitScore(ctx context.Context, r Regressor, X [][]float64, y []float64, score func() error) error {
	lf, ok := r.(leasedFitter)
	if !ok {
		if err := FitCtx(ctx, r, X, y); err != nil {
			return err
		}
		return score()
	}
	if _, err := checkXY(X, y); err != nil {
		return err
	}
	l := tb.lease()
	defer func() {
		lf.unfit()
		tb.release(l)
	}()
	if err := lf.fitColumns(ctx, l.columns(X), y, l); err != nil {
		return err
	}
	return score()
}
