package ml

// The explicit-child layouts. Both re-emit the packed preorder table
// with the left child stored again, because both give up the preorder
// property that makes it implicit:
//
//   - LayoutStandard keeps the preorder node order and is the PR 3
//     branchy two-child walk, a benchmark baseline.
//   - LayoutLevelOrder re-emits every member tree breadth-first, level
//     by level, so all nodes of one depth are contiguous. Tree-major
//     batch scoring then walks *one level of one tree per pass* over
//     the whole row block: every active row advances exactly one level
//     per sweep, which keeps the touched node span of each pass as
//     small as one level bucket instead of one root-to-leaf path per
//     row. Rows that reach a leaf fold its value into their accumulator
//     (in tree order, so the result stays bit-identical to per-row
//     Predict) and drop out of the sweep. This is a batch layout:
//     single-row prediction keeps using the packed preorder walk, which
//     is bit-identical.

// explicitTable is a fused ensemble with both child indices stored,
// global across the concatenated trees. Like the packed table it is
// derived from, a leaf (feature < 0) keeps its value in the threshold
// slot. Either node order leaves every tree in its own span with its
// root first, so the ensemble's roots address this table too.
type explicitTable struct {
	feature     []int32
	threshold   []float64
	left, right []int32
}

func newExplicitTable(n int) *explicitTable {
	return &explicitTable{
		feature:   make([]int32, n),
		threshold: make([]float64, n),
		left:      make([]int32, n),
		right:     make([]int32, n),
	}
}

// set writes node i; children are ignored at a leaf.
func (tb *explicitTable) set(i int32, n hotNode, left, right int32) {
	if n.feature < 0 {
		left, right = -1, -1
	}
	tb.feature[i], tb.threshold[i], tb.left[i], tb.right[i] = n.feature, n.threshold, left, right
}

// buildStdTable materialises the left child the packed table keeps
// implicit, in the same preorder.
func buildStdTable(e *CompiledEnsemble) *explicitTable {
	tb := newExplicitTable(len(e.hot))
	for i, n := range e.hot {
		tb.set(int32(i), n, int32(i)+1, n.right)
	}
	return tb
}

// buildLevelTable re-emits every member tree of e breadth-first.
func buildLevelTable(e *CompiledEnsemble) *explicitTable {
	tb := newExplicitTable(len(e.hot))
	// queue holds one tree's preorder indices in BFS order; a node's new
	// index is its tree's root plus its position in queue, so children
	// enqueued later automatically get later (deeper-level) slots.
	var queue []int32
	newOf := make([]int32, len(e.hot)) // preorder index -> BFS index
	for _, root := range e.roots {
		queue = append(queue[:0], root)
		for qi := 0; qi < len(queue); qi++ {
			old := queue[qi]
			newOf[old] = root + int32(qi)
			if n := e.hot[old]; n.feature >= 0 {
				queue = append(queue, old+1, n.right)
			}
		}
		for _, old := range queue {
			n := e.hot[old]
			if n.feature < 0 {
				tb.set(newOf[old], n, -1, -1)
			} else {
				tb.set(newOf[old], n, newOf[old+1], newOf[n.right])
			}
		}
	}
	return tb
}

// predictFrom is the explicit two-child branchy descent from one
// tree's root: the pre-PR 8 hot loop.
func (tb *explicitTable) predictFrom(root int32, x []float64) float64 {
	feature, threshold := tb.feature, tb.threshold
	left, right := tb.left, tb.right
	i := root
	for {
		f := feature[i]
		if f < 0 {
			return threshold[i]
		}
		if x[f] <= threshold[i] {
			i = left[i]
		} else {
			i = right[i]
		}
	}
}

// predictBatchLevels is the level-synchronous tree-major batch walk
// over a breadth-first table: outer loop trees, middle loop level
// sweeps, inner loop rows. Each row's accumulator folds tree
// contributions in tree order, so the result is bit-identical to
// per-row Predict calls. Steady-state allocation-free (the per-row
// cursor comes from a pool).
func (tb *explicitTable) predictBatchLevels(e *CompiledEnsemble, X [][]float64, out []float64) {
	boosted := e.combine == combineBoosted
	if boosted {
		for i := range out {
			out[i] = e.init
		}
	} else {
		for i := range out {
			out[i] = 0
		}
	}
	curp := getScratchI32(len(X))
	cur := *curp
	feature, threshold := tb.feature, tb.threshold
	left, right := tb.left, tb.right
	for _, r := range e.roots {
		for i := range cur {
			cur[i] = r
		}
		active := len(X)
		for active > 0 {
			for i, x := range X {
				n := cur[i]
				if n < 0 {
					continue
				}
				f := feature[n]
				if f < 0 {
					if boosted {
						out[i] += e.rate * threshold[n]
					} else {
						out[i] += threshold[n]
					}
					cur[i] = -1
					active--
					continue
				}
				if x[f] <= threshold[n] {
					cur[i] = left[n]
				} else {
					cur[i] = right[n]
				}
			}
		}
	}
	putScratchI32(curp)
	if !boosted {
		n := float64(len(e.roots))
		for i := range out {
			out[i] /= n
		}
	}
}
