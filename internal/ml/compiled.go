package ml

import (
	"fmt"
	"math"
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
// splits. Both tree-based estimators (DecisionTree, Forest) compile at
// Fit/load time; there is no pointer-tree runtime representation left.
//
// The walk is bit-identical to the recursive form: the node ordering,
// thresholds and comparison directions are unchanged, only the storage
// differs (asserted exhaustively by TestCompiledEquivalence in
// compiled_test.go).

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
	// keep is the owner of the memory the five columns alias when they
	// were decoded in place from a file mapping: holding it keeps the
	// mapping alive. Nil for fitted trees and heap-decoded ones.
	keep any
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
		i = hotStep(i, n, x)
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

// validate checks the invariants a deserialised node table over
// nFeatures features must satisfy: every internal node splits on a
// feature the row has, its implicit left child (i+1) exists and its
// right child strictly follows the left subtree's first node (which
// rules out cycles). It accepts exactly the canonical tables the
// builder produces; explicit-child inputs from the persistence layer
// are canonicalised first (see canonicalTree in persist.go).
func (c *CompiledTree) validate(nFeatures int) error {
	n := len(c.feature)
	if n == 0 {
		return fmt.Errorf("ml: corrupt tree: empty node list")
	}
	if len(c.threshold) != n || len(c.value) != n || len(c.right) != n {
		return fmt.Errorf("ml: corrupt tree: ragged node arrays")
	}
	for i := 0; i < n; i++ {
		f := c.feature[i]
		if f < 0 {
			continue // leaf; the right slot is ignored
		}
		if int(f) >= nFeatures {
			return fmt.Errorf("ml: corrupt tree: internal node %d splits on feature %d of %d", i, f, nFeatures)
		}
		r := c.right[i]
		if r <= int32(i)+1 || int(r) >= n {
			return fmt.Errorf("ml: corrupt tree: internal node %d has right child %d outside (%d, %d)", i, r, i+1, n)
		}
	}
	return nil
}

// CompiledEnsemble is a whole tree ensemble fused onto one contiguous
// table of packed 16-byte records: every member tree's nodes are
// concatenated (each tree preorder-contiguous, right-child indices
// rebased) with per-tree root offsets, so scoring streams through one
// allocation-free memory region instead of hopping between per-tree
// heaps. The packed table is the only fused form: the member trees keep
// their own structure-of-arrays tables (at load those alias the
// artifact's file mapping), and nothing else holds a per-node copy.
// The table itself is always heap memory, so the walk never touches a
// mapped page. It is walked two ways — one row across four trees
// (predictHotInterleaved) and one tree across four rows
// (predictHotTreeRows) — and both take the mean of the leaf values,
// summed in tree order.
type CompiledEnsemble struct {
	// hot is the fused packed table, hot[roots[t]] the root of tree t.
	hot   []hotNode
	roots []int32
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
// packed table exactly, allocates it once and fills each tree's
// disjoint range straight from the tree's own arrays. The fill runs on
// the calling goroutine: it is a millisecond of streaming work per half
// million nodes, and fanning it out made a cold load's time depend on
// whether a second core happened to be free (a helper descheduled
// mid-tree stalls the join). It fails only when the ensemble is too
// large for int32 node indices.
func compileEnsemble(trees []*DecisionTree) (*CompiledEnsemble, error) {
	roots, total, err := fusedRoots(len(trees), func(t int) int { return trees[t].nodes.Len() })
	if err != nil {
		return nil, err
	}
	e := &CompiledEnsemble{hot: make([]hotNode, total), roots: roots}
	for t, tree := range trees {
		packTree(e.hot[roots[t]:e.treeEnd(t)], &tree.nodes, int(roots[t]))
	}
	return e, nil
}

// Predict scores one feature vector, folding the member trees in
// order: bit-identical to averaging the members' individual
// predictions the way the recursive implementation did, (t₀+t₁+…)/n.
// Allocation-free.
func (e *CompiledEnsemble) Predict(x []float64) float64 {
	return e.predictHotInterleaved(x)
}

// hotStep is predictHot's branchless descent from node n at index i:
// the comparison becomes an all-ones/all-zero mask that picks between
// the implicit left child (i+1) and n.right.
func hotStep(i int32, n hotNode, x []float64) int32 {
	goLeft := -b2i32(x[n.feature] <= n.threshold) // all ones when left
	return n.right + ((i + 1 - n.right) & goLeft)
}

// predictHotInterleaved is the implicit-left single-row ensemble walk
// over the packed hot table, four trees in lockstep. Each walk is a
// serial chain of dependent loads, but walks of different trees are
// independent, so stepping four at once keeps that many loads in
// flight. The four cursors and their loaded records are plain locals,
// not arrays indexed by a lane loop: the walk is instruction-bound
// (the table mostly hits cache), and lanes the compiler can keep in
// registers cost a third less per node visit than lanes it must spill
// and reload (EXPERIMENTS.md § Batch budget). A lane that reaches its
// leaf idles on a predictable branch until the slowest lane lands.
// Leaf values are still folded in tree order, so the result is
// bit-identical to walking the trees one by one; the trees past the
// last full group of four go through predictHot.
func (e *CompiledEnsemble) predictHotInterleaved(x []float64) float64 {
	hot, roots := e.hot, e.roots
	out := 0.0
	g := 0
	for ; g+4 <= len(roots); g += 4 {
		i0, i1, i2, i3 := roots[g], roots[g+1], roots[g+2], roots[g+3]
		n0, n1, n2, n3 := hot[i0], hot[i1], hot[i2], hot[i3]
		// A leaf's feature is negative, so the AND is negative only
		// once every lane has landed.
		for n0.feature&n1.feature&n2.feature&n3.feature >= 0 {
			if n0.feature >= 0 {
				i0 = hotStep(i0, n0, x)
				n0 = hot[i0]
			}
			if n1.feature >= 0 {
				i1 = hotStep(i1, n1, x)
				n1 = hot[i1]
			}
			if n2.feature >= 0 {
				i2 = hotStep(i2, n2, x)
				n2 = hot[i2]
			}
			if n3.feature >= 0 {
				i3 = hotStep(i3, n3, x)
				n3 = hot[i3]
			}
		}
		out += n0.threshold
		out += n1.threshold
		out += n2.threshold
		out += n3.threshold
	}
	for _, r := range roots[g:] {
		out += predictHot(hot, r, x)
	}
	return out / float64(len(roots))
}

// batchTreeMajorMinNodes is the node-table size from which batch
// scoring is tree-major. Either order is bit-identical (see
// PredictBatchInto), so the cutoff is purely a matter of speed.
const batchTreeMajorMinNodes = 4096

// PredictBatchInto scores every row of X into out sequentially with
// zero steady-state allocations; out must have len(X) elements. For
// large node tables the traversal is tree-major — the outer loop walks
// trees, the inner loop rows — so one tree's nodes stay cache-hot
// across the whole block instead of the entire ensemble being
// re-streamed per row. Each out[i] still accumulates its tree
// contributions in tree order, so the result is bit-identical to
// per-row Predict calls. Parallel batch scoring lives in
// PredictBatchIntoCtx, which block-splits over this walk.
func (e *CompiledEnsemble) PredictBatchInto(X [][]float64, out []float64) {
	out = out[:len(X)]
	if len(e.hot) < batchTreeMajorMinNodes {
		e.predictBatchRowMajor(X, out)
	} else {
		e.predictBatchTreeMajor(X, out)
	}
}

// predictBatchRowMajor is the batch walk of small tables: every row
// folds the whole ensemble before the next row starts.
func (e *CompiledEnsemble) predictBatchRowMajor(X [][]float64, out []float64) {
	for i, x := range X {
		out[i] = e.Predict(x)
	}
}

// predictBatchTreeMajor is the batch walk of large tables: every tree
// is walked for all rows before the next tree starts. The packed
// kernel takes rows four at a time, so the one to three rows past the
// last full group are folded row-major instead — rows are independent,
// and the single-row walk keeps four trees in flight for them where a
// lone row in the tree-major order would keep nothing in flight.
func (e *CompiledEnsemble) predictBatchTreeMajor(X [][]float64, out []float64) {
	full := len(X) &^ 3
	e.predictBatchRowMajor(X[full:], out[full:])
	X, out = X[:full], out[:full]
	for i := range out {
		out[i] = 0
	}
	for _, r := range e.roots {
		predictHotTreeRows(e.hot, r, X, out)
	}
	n := float64(len(e.roots))
	for i := range out {
		out[i] /= n
	}
}

// predictHotTreeRows accumulates one tree's leaf values into out
// for every row of X (a multiple of four), four rows in lockstep — the
// batch twin of predictHotInterleaved, with the same register-resident
// lanes: within a tree the rows are independent walks. The caller's
// outer loop still visits trees in order, so each out[i] accumulates
// tree contributions exactly as the row-major walk would.
func predictHotTreeRows(hot []hotNode, r int32, X [][]float64, out []float64) {
	out = out[:len(X)]
	root := hot[r]
	for g := 0; g+4 <= len(X); g += 4 {
		x0, x1, x2, x3 := X[g], X[g+1], X[g+2], X[g+3]
		i0, i1, i2, i3 := r, r, r, r
		n0, n1, n2, n3 := root, root, root, root
		for n0.feature&n1.feature&n2.feature&n3.feature >= 0 {
			if n0.feature >= 0 {
				i0 = hotStep(i0, n0, x0)
				n0 = hot[i0]
			}
			if n1.feature >= 0 {
				i1 = hotStep(i1, n1, x1)
				n1 = hot[i1]
			}
			if n2.feature >= 0 {
				i2 = hotStep(i2, n2, x2)
				n2 = hot[i2]
			}
			if n3.feature >= 0 {
				i3 = hotStep(i3, n3, x3)
				n3 = hot[i3]
			}
		}
		o := out[g : g+4 : g+4]
		o[0] += n0.threshold
		o[1] += n1.threshold
		o[2] += n2.threshold
		o[3] += n3.threshold
	}
}
