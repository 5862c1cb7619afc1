package ml

import (
	"fmt"
	"math"
	"sync/atomic"
	"unsafe"
)

// b2i32 converts a bool to 0/1 without a branch: the comparison's
// SETcc result is read back as a byte instead of being re-branched on.
func b2i32(b bool) int32 {
	return int32(*(*byte)(unsafe.Pointer(&b)))
}

// The compiled inference plane. Fitted trees are stored as contiguous
// structure-of-arrays node tables — the same flat form the persistence
// layer has always serialised — instead of per-node heap objects, and
// traversal is an iterative index walk instead of pointer chasing.
//
// The node order is *canonical preorder*: a node's left child is always
// the next node (left == i+1), so the left-child array does not exist
// at runtime — only the right-child indices are stored. A root-to-leaf
// walk touches a mostly ascending address sequence, needs one fewer
// cache line per level than the explicit two-child form, and the
// descent itself compiles to a conditional move instead of a branch
// (see predictHot), so the CPU never mispredicts data-dependent
// splits. Every tree-based estimator (DecisionTree, Forest, Bagging
// over tree bases, GradientBoosting) compiles at Fit/load time; there
// is no pointer-tree runtime representation left.
//
// Alternative traversal layouts (the PR 3 explicit-child walk kept as a
// benchmark baseline, a depth-bucketed level-order batch layout, and
// quantized node tables) are derived from this canonical form — see
// layout.go, levelorder.go and quant.go.
//
// Exact layouts are bit-identical to the recursive form: the node
// ordering, thresholds and comparison directions are unchanged, only
// the storage differs (asserted exhaustively by TestCompiledEquivalence
// in compiled_test.go). Quantized layouts are approximate and opt-in.

// CompiledTree is one regression tree flattened onto parallel arrays in
// canonical preorder. Leaves have feature[i] < 0; internal nodes keep
// their left child at i+1 (implicit, not stored) and their right child
// at right[i] > i+1. This both guarantees traversal terminates and
// keeps walks cache-friendly. The zero value is an empty (unfitted)
// tree.
type CompiledTree struct {
	feature   []int32
	threshold []float64
	value     []float64
	right     []int32
	// nSamples is the training-sample count per node — diagnostic
	// state carried for the persistence round trip, never read on the
	// prediction hot path.
	nSamples []int32
}

// Len returns the number of nodes.
func (c *CompiledTree) Len() int { return len(c.feature) }

// Predict walks the tree iteratively from the root. The caller
// guarantees x has the arity the tree was fitted on (the estimator
// wrappers check). The slice headers are hoisted into locals so the
// loop reloads nothing through the receiver. The comparison direction
// (x <= threshold goes left, everything else — including NaN — goes
// right) is exactly the legacy recursive walk's. Allocation-free.
func (c *CompiledTree) Predict(x []float64) float64 {
	feature, threshold, right := c.feature, c.threshold, c.right
	i := int32(0)
	for {
		f := feature[i]
		if f < 0 {
			return c.value[i]
		}
		next := right[i]
		if x[f] <= threshold[i] {
			next = i + 1
		}
		i = next
	}
}

// hotNode packs the three fields the branchless descent reads into one
// 16-byte record, so each visited node costs a single cache line where
// the SoA walk touches three (feature, threshold and right live in
// separate arrays). Leaves reuse the threshold slot for the leaf value
// — the walk never touches the value column at all. The values are
// verbatim copies of the member tree's, so the walk stays bit-identical.
type hotNode struct {
	threshold float64 // leaf value when feature < 0
	feature   int32
	right     int32
}

// packTree writes one member tree's packed records into dst (exactly
// c.Len() long), rebasing its tree-local right-child indices by base,
// the tree's first index in the fused table. Leaves and splits
// alternate unpredictably in preorder, so the leaf/split choice is made
// with a sign mask instead of a branch: the loop runs at half the cost
// of the branching form, which is what lets the fuse stay on the
// calling goroutine (see compileEnsemble).
func packTree(dst []hotNode, c *CompiledTree, base int) {
	n := len(dst)
	feature, threshold, value, right := c.feature[:n], c.threshold[:n], c.value[:n], c.right[:n]
	b := int32(base)
	for i, f := range feature {
		leaf := f >> 31 // all ones for a leaf (feature < 0), else zero
		tb, vb := math.Float64bits(threshold[i]), math.Float64bits(value[i])
		dst[i] = hotNode{
			threshold: math.Float64frombits(tb ^ (tb^vb)&uint64(int64(leaf))),
			feature:   f | leaf,
			right:     (b + right[i]) &^ leaf,
		}
	}
}

// predictHot is CompiledTree.Predict over the packed record array,
// starting at any tree's root: one cache line per visited node and a
// fully branchless step. Go's compiler lowers `if cond { next = i+1 }`
// to a conditional jump (not CMOV) for float-controlled conditions, so
// the select is done arithmetically: the comparison materialises as a
// SETcc byte (b2i32), negating it gives an all-ones/all-zero mask, and
// the mask picks between right and i+1 with no data-dependent control
// flow for the predictor to miss. NaN features compare false and take
// the right child, exactly like the recursive walk.
func predictHot(hot []hotNode, root int32, x []float64) float64 {
	i := root
	for {
		n := hot[i]
		if n.feature < 0 {
			return n.threshold
		}
		goLeft := -b2i32(x[n.feature] <= n.threshold) // all ones when left
		i = n.right + ((i + 1 - n.right) & goLeft)
	}
}

// depth returns the tree depth (a lone leaf has depth 1) by one linear
// pass: preorder guarantees parents precede children, so each node's
// depth is known when its children are visited.
func (c *CompiledTree) depth() int {
	n := len(c.feature)
	if n == 0 {
		return 0
	}
	depths := make([]int32, n)
	depths[0] = 1
	max := int32(1)
	for i := 0; i < n; i++ {
		if c.feature[i] < 0 {
			continue
		}
		d := depths[i] + 1
		depths[i+1] = d
		depths[c.right[i]] = d
		if d > max {
			max = d
		}
	}
	return int(max)
}

// numLeaves counts the leaf nodes.
func (c *CompiledTree) numLeaves() int {
	n := 0
	for _, f := range c.feature {
		if f < 0 {
			n++
		}
	}
	return n
}

// validate checks the structural invariants a deserialised node table
// must satisfy: every internal node's implicit left child (i+1) exists
// and its right child strictly follows the left subtree's first node
// (which rules out cycles). It accepts exactly the canonical tables
// the builder produces; explicit-child inputs from the persistence
// layer are canonicalised first (see canonicalTree in persist.go).
func (c *CompiledTree) validate() error {
	n := len(c.feature)
	if n == 0 {
		return fmt.Errorf("ml: corrupt tree: empty node list")
	}
	if len(c.threshold) != n || len(c.value) != n || len(c.right) != n {
		return fmt.Errorf("ml: corrupt tree: ragged node arrays")
	}
	for i := 0; i < n; i++ {
		if c.feature[i] < 0 {
			continue // leaf; the right slot is ignored
		}
		r := c.right[i]
		if r <= int32(i)+1 || int(r) >= n {
			return fmt.Errorf("ml: corrupt tree: internal node %d has right child %d outside (%d, %d)", i, r, i+1, n)
		}
	}
	return nil
}

// ensembleCombine selects how a compiled ensemble folds its member
// trees' outputs into one prediction.
type ensembleCombine int

const (
	// combineMean averages the member predictions in tree order —
	// forests and bagged trees.
	combineMean ensembleCombine = iota
	// combineBoosted sums init + rate·treeᵢ(x) in stage order —
	// gradient boosting.
	combineBoosted
)

// CompiledEnsemble is a whole tree ensemble fused onto one contiguous
// table of packed 16-byte records: every member tree's nodes are
// concatenated (each tree preorder-contiguous, right-child indices
// rebased) with per-tree root offsets, so scoring streams through one
// allocation-free memory region instead of hopping between per-tree
// heaps. The packed table is the only fused form: the member trees keep
// their own structure-of-arrays tables (at load those alias the
// artifact's file buffer), and nothing else holds a per-node copy.
//
// The packed table is the implicit-left branchless layout; SetLayout
// derives the alternative traversal forms (explicit-child baseline,
// level-order batch striding, quantized tables) from it. SetLayout is
// not safe to call concurrently with prediction — apply it right after
// Fit/load, before the ensemble is shared (the registry/serve layers
// do exactly that).
type CompiledEnsemble struct {
	// hot is the fused packed table, hot[roots[t]] the root of tree t.
	hot     []hotNode
	roots   []int32
	combine ensembleCombine
	// init and rate are the boosting constants (combineBoosted only).
	init, rate float64

	// layout is the active traversal layout (always resolved, never
	// LayoutDefault). The derived tables below are non-nil only for
	// their layout.
	layout Layout
	// explicit is the explicit-child table: in preorder for
	// LayoutStandard (the PR 3 baseline walk), breadth-first for
	// LayoutLevelOrder.
	explicit *explicitTable
	// qt is the quantized node table for LayoutQuant16/LayoutQuant8.
	qt *quantEnsemble
}

// NumTrees returns the number of member trees.
func (e *CompiledEnsemble) NumTrees() int { return len(e.roots) }

// NumNodes returns the total node count across all members.
func (e *CompiledEnsemble) NumNodes() int { return len(e.hot) }

// treeEnd returns one past the last fused index of member tree t.
func (e *CompiledEnsemble) treeEnd(t int) int32 {
	if t+1 < len(e.roots) {
		return e.roots[t+1]
	}
	return int32(len(e.hot))
}

// fusedRoots lays n member trees of treeLen(t) nodes end to end: it
// returns each tree's first index in the fused table and the table's
// length. Sizes are summed in int and a table int32 node indices
// cannot address is refused, never wrapped.
func fusedRoots(n int, treeLen func(t int) int) ([]int32, int, error) {
	roots := make([]int32, n)
	total := 0
	for t := range roots {
		l := treeLen(t)
		if l > math.MaxInt32-total {
			return nil, 0, fmt.Errorf("ml: ensemble exceeds %d nodes at tree %d of %d (%d so far, %d more)", math.MaxInt32, t, n, total, l)
		}
		roots[t] = int32(total)
		total += l
	}
	return roots, total, nil
}

// compileEnsemble is the one place member trees are fused: it sizes the
// packed table exactly, allocates it once, fills each tree's disjoint
// range straight from the tree's own arrays and applies the
// process-default traversal layout. The fill runs on the calling
// goroutine: it is a millisecond of streaming work per half million
// nodes, and fanning it out made a cold load's time depend on whether a
// second core happened to be free (a helper descheduled mid-tree stalls
// the join). init and rate are the boosting constants, ignored by
// combineMean. It fails only when the ensemble is too large for int32
// node indices.
func compileEnsemble(trees []*DecisionTree, combine ensembleCombine, init, rate float64) (*CompiledEnsemble, error) {
	roots, total, err := fusedRoots(len(trees), func(t int) int { return trees[t].nodes.Len() })
	if err != nil {
		return nil, err
	}
	e := &CompiledEnsemble{hot: make([]hotNode, total), roots: roots, combine: combine, init: init, rate: rate}
	for t, tree := range trees {
		packTree(e.hot[roots[t]:e.treeEnd(t)], &tree.nodes, int(roots[t]))
	}
	e.applyDefaultLayout()
	return e, nil
}

// Predict scores one feature vector, folding the member trees in
// order. Exact layouts are bit-identical to summing the members'
// individual predictions the way the estimators' recursive
// implementations did: mean = (t₀+t₁+…)/n, boosted = init + rate·t₀ +
// rate·t₁ + …. Quantized layouts approximate within the documented
// threshold-perturbation bound. Allocation-free.
func (e *CompiledEnsemble) Predict(x []float64) float64 {
	switch e.layout {
	case LayoutQuant16, LayoutQuant8:
		return e.qt.predict(x)
	case LayoutStandard:
		return e.predictStd(x)
	}
	// Implicit-left branchless — also serves LayoutLevelOrder: the
	// level table is a batch-striding layout, single rows walk the
	// packed preorder table (bit-identical either way).
	return e.predictHotInterleaved(x)
}

// hotLanes is the number of member trees a single-row ensemble walk
// descends simultaneously. Each walk is a serial chain of dependent
// loads — on tables past the cache the walker mostly waits on memory —
// but walks of different trees are independent, so stepping a few in
// lockstep keeps that many misses in flight. Leaf values are still
// folded in tree order, so the result is bit-identical to walking the
// trees one by one.
const hotLanes = 4

// predictHotInterleaved is the implicit-left single-row ensemble walk
// over the packed hot table, hotLanes trees at a time.
func (e *CompiledEnsemble) predictHotInterleaved(x []float64) float64 {
	hot, roots := e.hot, e.roots
	var idx [hotLanes]int32
	var val [hotLanes]float64
	boosted := e.combine == combineBoosted
	out := 0.0
	if boosted {
		out = e.init
	}
	for g := 0; g < len(roots); g += hotLanes {
		m := len(roots) - g
		if m > hotLanes {
			m = hotLanes
		}
		for l := 0; l < m; l++ {
			idx[l] = roots[g+l]
		}
		for active := m; active > 0; {
			active = 0
			for l := 0; l < m; l++ {
				i := idx[l]
				n := hot[i]
				if n.feature < 0 {
					val[l] = n.threshold
					continue
				}
				active++
				goLeft := -b2i32(x[n.feature] <= n.threshold)
				idx[l] = n.right + ((i + 1 - n.right) & goLeft)
			}
		}
		if boosted {
			for l := 0; l < m; l++ {
				out += e.rate * val[l]
			}
		} else {
			for l := 0; l < m; l++ {
				out += val[l]
			}
		}
	}
	if !boosted {
		out /= float64(len(roots))
	}
	return out
}

// predictStd is Predict through the LayoutStandard explicit-child walk
// (the PR 3 baseline kept for benchmarking and regression guarding).
func (e *CompiledEnsemble) predictStd(x []float64) float64 {
	std := e.explicit
	switch e.combine {
	case combineBoosted:
		out := e.init
		for _, r := range e.roots {
			out += e.rate * std.predictFrom(r, x)
		}
		return out
	default:
		s := 0.0
		for _, r := range e.roots {
			s += std.predictFrom(r, x)
		}
		return s / float64(len(e.roots))
	}
}

// PredictInto scores one feature vector per member prefix: out[i] is
// the prediction using trees [0, i] — the staged-prediction primitive.
// out must have NumTrees elements. Staged prediction is an analysis
// path, not a serving path, so it always walks the exact packed table
// regardless of the active layout. Allocation-free.
func (e *CompiledEnsemble) PredictInto(x []float64, out []float64) {
	switch e.combine {
	case combineBoosted:
		acc := e.init
		for i, r := range e.roots {
			acc += e.rate * predictHot(e.hot, r, x)
			out[i] = acc
		}
	default:
		s := 0.0
		for i, r := range e.roots {
			s += predictHot(e.hot, r, x)
			out[i] = s / float64(i+1)
		}
	}
}

// batchTreeMajorMinNodes is the node-table size above which batch
// scoring switches from row-major to tree-major traversal. Small
// ensembles (shallow boosting stages) fit in L1/L2 whole, and
// row-major keeps the accumulator in a register; large forests blow
// the cache per row, and tree-major keeps one tree's nodes hot across
// the whole block instead. Either order is bit-identical (see below),
// so the cutoff is purely a performance knob — tunable per host via
// SetBatchTreeMajorThreshold (the atomic makes runtime retuning safe
// while serving).
var batchTreeMajorMinNodes atomic.Int64

const defaultBatchTreeMajorMinNodes = 4096

func init() { batchTreeMajorMinNodes.Store(defaultBatchTreeMajorMinNodes) }

// SetBatchTreeMajorThreshold tunes the node-table size at which batch
// scoring switches from row-major to tree-major traversal. Values < 1
// restore the built-in default (4096). Both orders are bit-identical;
// the threshold is purely a per-host performance knob (benchmark with
// lam-bench).
func SetBatchTreeMajorThreshold(n int) {
	if n < 1 {
		n = defaultBatchTreeMajorMinNodes
	}
	batchTreeMajorMinNodes.Store(int64(n))
}

// BatchTreeMajorThreshold returns the current row-major/tree-major
// switchover threshold.
func BatchTreeMajorThreshold() int { return int(batchTreeMajorMinNodes.Load()) }

// PredictBatchInto scores every row of X into out sequentially with
// zero steady-state allocations; out must have len(X) elements. For
// large node tables the traversal is tree-major — the outer loop walks
// trees, the inner loop rows — so one tree's nodes stay cache-hot
// across the whole block instead of the entire ensemble being
// re-streamed per row. Each out[i] still accumulates its tree
// contributions in tree order, so exact layouts are bit-identical to
// per-row Predict calls. Parallel batch scoring lives in the
// estimators (Forest.PredictBatchInto and friends), which block-split
// over this walk.
func (e *CompiledEnsemble) PredictBatchInto(X [][]float64, out []float64) {
	out = out[:len(X)]
	switch e.layout {
	case LayoutQuant16, LayoutQuant8:
		e.qt.predictBatchInto(X, out)
		return
	case LayoutLevelOrder:
		e.explicit.predictBatchLevels(e, X, out)
		return
	}
	if int64(len(e.hot)) < batchTreeMajorMinNodes.Load() {
		for i, x := range X {
			out[i] = e.Predict(x)
		}
		return
	}
	if e.layout == LayoutStandard {
		e.predictBatchTreeMajorStd(X, out)
		return
	}
	switch e.combine {
	case combineBoosted:
		for i := range out {
			out[i] = e.init
		}
		for _, r := range e.roots {
			predictHotTreeRows(e.hot, r, X, out, e.rate)
		}
	default:
		for i := range out {
			out[i] = 0
		}
		for _, r := range e.roots {
			predictHotTreeRows(e.hot, r, X, out, 1)
		}
		n := float64(len(e.roots))
		for i := range out {
			out[i] /= n
		}
	}
}

// predictHotTreeRows accumulates one tree's scaled leaf values into out
// for every row of X, hotLanes rows in lockstep — the batch twin of
// predictHotInterleaved: within a tree the rows are independent walks,
// so stepping a few at once keeps their loads in flight. The caller's
// outer loop still visits trees in order, so each out[i] accumulates
// tree contributions exactly as the row-major walk would.
func predictHotTreeRows(hot []hotNode, r int32, X [][]float64, out []float64, scale float64) {
	var idx [hotLanes]int32
	var val [hotLanes]float64
	for g := 0; g < len(X); g += hotLanes {
		m := len(X) - g
		if m > hotLanes {
			m = hotLanes
		}
		for l := 0; l < m; l++ {
			idx[l] = r
		}
		for active := m; active > 0; {
			active = 0
			for l := 0; l < m; l++ {
				i := idx[l]
				n := hot[i]
				if n.feature < 0 {
					val[l] = n.threshold
					continue
				}
				active++
				x := X[g+l]
				goLeft := -b2i32(x[n.feature] <= n.threshold)
				idx[l] = n.right + ((i + 1 - n.right) & goLeft)
			}
		}
		for l := 0; l < m; l++ {
			out[g+l] += scale * val[l]
		}
	}
}

// predictBatchTreeMajorStd is the tree-major batch walk through the
// LayoutStandard explicit-child descent.
func (e *CompiledEnsemble) predictBatchTreeMajorStd(X [][]float64, out []float64) {
	std := e.explicit
	switch e.combine {
	case combineBoosted:
		for i := range out {
			out[i] = e.init
		}
		for _, r := range e.roots {
			for i, x := range X {
				out[i] += e.rate * std.predictFrom(r, x)
			}
		}
	default:
		for i := range out {
			out[i] = 0
		}
		for _, r := range e.roots {
			for i, x := range X {
				out[i] += std.predictFrom(r, x)
			}
		}
		n := float64(len(e.roots))
		for i := range out {
			out[i] /= n
		}
	}
}
