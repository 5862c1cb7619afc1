package ml

import (
	"fmt"
	"math"
	"slices"
	"sync/atomic"
	"unsafe"

	"lam/internal/parallel"
)

// b2i32 converts a bool to 0/1 without a branch: the comparison's
// SETcc result is read back as a byte instead of being re-branched on.
func b2i32(b bool) int32 {
	return int32(*(*byte)(unsafe.Pointer(&b)))
}

// The compiled inference plane. A fitted tree is a view of one table
// of packed 16-byte records (hotNode), and traversal is an iterative
// index walk over it instead of pointer chasing.
//
// The node order is *canonical preorder*: a node's left child is always
// the next node (left == i+1), so no left-child index is stored — only
// the right child's. A root-to-leaf walk touches a mostly ascending
// address sequence, needs one fewer cache line per level than the
// explicit two-child form, and the descent itself compiles to a
// conditional move instead of a branch (see predictHot), so the CPU
// never mispredicts data-dependent splits.
//
// The table is the whole model: a fit grows each tree straight into it
// (growth), a lamb1 version-3 decode adopts the file's records as it
// (adoptRecords), and only the legacy decoders (lamb1 versions 1 and 2,
// jsonv1) read a tree as a nodeTable, which compileEnsemble packs. The
// walk is bit-identical to the recursive form: the node ordering,
// thresholds and comparison directions are unchanged, only the storage
// differs (asserted exhaustively by TestCompiledEquivalence in
// compiled_test.go).

// nodeTable is one tree's nodes in canonical preorder, one column per
// field — the legacy on-disk layout, which no model keeps. Leaves have
// feature[i] < 0; internal nodes keep their left child at i+1 and their
// right child at right[i] > i+1, so a walk always terminates.
type nodeTable struct {
	feature   []int32
	threshold []float64
	value     []float64
	right     []int32
}

// CompiledTree is one fitted regression tree: a range of a packed walk
// table — its ensemble's fused table for a forest member, its own for a
// standalone tree. The zero value is an empty (unfitted) tree.
type CompiledTree struct {
	// hot ends at the tree's last record; hot[root] is its root.
	hot  []hotNode
	root int32
	// keep owns the file mapping hot aliases when the tree was decoded
	// in place; holding it keeps the mapping alive.
	keep any
}

// Len returns the number of nodes.
func (c *CompiledTree) Len() int { return len(c.hot) - int(c.root) }

// hotNode packs the three fields the branchless descent reads into one
// 16-byte record, so each visited node costs a single cache line.
// Leaves reuse the threshold slot for the leaf value, and a leaf is
// canonical: feature -1, right 0. The values are verbatim copies of the
// grown or decoded table's, so the walk stays bit-identical. On a
// little-endian host a record's memory image is its lamb1 version-3
// encoding, which is what lets a decode alias the file.
type hotNode struct {
	threshold float64 // leaf value when feature < 0
	feature   int32
	right     int32
}

// A hotNode layout other than threshold at byte 0, feature at 8 and
// right at 12 of 16 fails to compile here.
var _ [0]struct{} = [unsafe.Sizeof(hotNode{}) - 16 + unsafe.Offsetof(hotNode{}.feature) - 8 + unsafe.Offsetof(hotNode{}.right) - 12]struct{}{}

// packTree writes one legacy node table's packed records into dst
// (exactly as long), rebasing its tree-local right-child indices by
// base, the tree's first index in the fused table. Leaves and splits
// alternate unpredictably in preorder, so the leaf/split choice is made
// with a sign mask instead of a branch: the loop runs at half the cost
// of the branching form.
func packTree(dst []hotNode, c *nodeTable, base int) {
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

// predictHot walks one tree of a packed record array from its root:
// one cache line per visited node and a fully branchless step. Go's
// compiler lowers `if cond { next = i+1 }` to a conditional jump (not
// CMOV) for float-controlled conditions, so the select is done
// arithmetically: the comparison materialises as a SETcc byte
// (b2i32), negating it gives an all-ones/all-zero mask, and the mask
// picks between right and i+1 with no data-dependent control flow for
// the predictor to miss. NaN features compare false and take the
// right child, exactly like the recursive walk. Allocation-free.
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

// validate checks the invariants a legacy node table over
// nFeatures features must satisfy: every internal node splits on a
// feature the row has, its implicit left child (i+1) exists and its
// right child strictly follows the left subtree's first node (which
// rules out cycles). It accepts exactly the canonical tables the
// builder produces; explicit-child inputs from the persistence layer
// are canonicalised first (see canonicalTree in persist.go).
func (c *nodeTable) validate(nFeatures int) error {
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
// absolute in the table) with per-tree root offsets, so scoring streams
// through one allocation-free memory region instead of hopping between
// per-tree heaps. The member trees are views of this table, so it is
// the only per-node copy of the model. A fit's table is heap memory; a
// lamb1 version-3 load's is the artifact's mapping itself, which keep
// then owns, so every walk reads mapped pages. It is walked two ways —
// one row across four trees (predictHotInterleaved) and one tree across
// four rows (predictHotTreeRows) — and both take the mean of the leaf
// values, summed in tree order.
type CompiledEnsemble struct {
	// hot is the fused packed table, hot[roots[t]] the root of tree t.
	hot   []hotNode
	roots []int32
	// keep owns the file mapping hot aliases, as CompiledTree.keep.
	keep any
}

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

// views makes trees[t] a view of its range of e's table.
func (e *CompiledEnsemble) views(trees []*DecisionTree) {
	for t, tree := range trees {
		hi := e.treeEnd(t)
		tree.nodes = CompiledTree{hot: e.hot[:hi:hi], root: e.roots[t], keep: e.keep}
	}
}

// compileEnsemble is where legacy-decoded trees become models: it packs
// tables[t] into one exact-size fused table and makes trees[t] a view
// of its range. The fill stays on the calling goroutine: the
// branch-free packTree is as fast as a branching fill on two cores, so
// unlike adoptRecords' check it would not halve with a second core. It
// fails, touching no tree, only past int32 node indices.
func compileEnsemble(trees []*DecisionTree, tables []nodeTable) (*CompiledEnsemble, error) {
	roots, total, err := fusedRoots(len(tables), func(t int) int { return len(tables[t].feature) })
	if err != nil {
		return nil, err
	}
	e := &CompiledEnsemble{hot: make([]hotNode, total), roots: roots}
	for t := range tables {
		lo, hi := roots[t], e.treeEnd(t)
		packTree(e.hot[lo:hi], &tables[t], int(lo))
	}
	e.views(trees)
	return e, nil
}

// adoptRecords is where lamb1 version-3 trees become models: hot is the
// file's record block, used as the walk table as it stands, and roots
// its root column. One pass checks what a walk relies on, so a table
// that passes can neither leave its tree nor index past a row of
// nFeatures: roots start at 0 and rise strictly inside the table; a
// split names a feature below nFeatures and a right child inside its
// own tree past its left child (preorder, so every walk ends); a leaf
// is canonical (feature -1, right 0). The pass only reads hot, which
// may be a read-only mapping; keep is what owns it. A large table is
// checked in blocks of trees across cores (firstBadTree), and the error
// is always the lowest faulty tree's, so it does not depend on the
// worker count.
func adoptRecords(trees []*DecisionTree, hot []hotNode, roots []int32, nFeatures int, keep any) (*CompiledEnsemble, error) {
	if len(roots) != len(trees) || len(roots) == 0 || roots[0] != 0 {
		return nil, fmt.Errorf("ml: corrupt tree: %d roots for %d trees, first %v", len(roots), len(trees), roots[:min(len(roots), 1)])
	}
	e := &CompiledEnsemble{hot: hot, roots: roots, keep: keep}
	if t := e.firstBadTree(int32(nFeatures)); t < len(roots) {
		return nil, e.treeFault(t, nFeatures)
	}
	e.views(trees)
	return e, nil
}

// adoptBlockMinRecords is the fewest records one block of
// firstBadTree's fan-out checks when the trees are of equal size: below
// it a helper's wake-up costs more than the share of the check it
// takes, so a table of fewer than twice as many records is one block,
// checked on the calling goroutine (EXPERIMENTS.md § Cold-load budget).
const adoptBlockMinRecords = 1 << 14

// adoptBlocks splits n trees holding records records into blocks of
// perBlock contiguous trees, the last block also taking the n%perBlock
// left over. perBlock is the fewest trees that, at the average tree's
// size, hold adoptBlockMinRecords records, so no block holds fewer
// trees than that.
func adoptBlocks(n, records int) (blocks, perBlock int) {
	most := records / adoptBlockMinRecords
	if most < 2 {
		return 1, n
	}
	perBlock = (n + most - 1) / most
	return n / perBlock, perBlock
}

// firstBadTree returns the lowest tree whose records a walk could not
// follow, or len(e.roots) when every tree passes. The blocks of
// adoptBlocks are checked in parallel; the only shared state is the
// lowest faulty tree found so far, which a block starting past it
// skips. Tree t's range is taken from the roots as they stand: one that
// starts below 0 is counted as faulty, and cannot be the lowest, since
// roots that rise strictly from 0 up to t keep roots[t] positive.
func (e *CompiledEnsemble) firstBadTree(nFeatures int32) int {
	n := len(e.roots)
	blocks, perBlock := adoptBlocks(n, len(e.hot))
	var first atomic.Int64
	first.Store(int64(n))
	parallel.For(blocks, 0, func(b int) {
		lo, hi := b*perBlock, (b+1)*perBlock
		if b == blocks-1 {
			hi = n
		}
		if int64(lo) >= first.Load() {
			return
		}
		t := e.firstBadTreeIn(lo, hi, nFeatures)
		if t == hi {
			return
		}
		for cur := first.Load(); int64(t) < cur; cur = first.Load() {
			if first.CompareAndSwap(cur, int64(t)) {
				return
			}
		}
	})
	return int(first.Load())
}

// firstBadTreeIn returns the lowest tree in [lo, hi) a walk could not
// follow, or hi.
func (e *CompiledEnsemble) firstBadTreeIn(lo, hi int, nFeatures int32) int {
	for t := lo; t < hi; t++ {
		l, h := e.roots[t], e.treeEnd(t)
		if l < 0 || h <= l || int(h) > len(e.hot) || badRecord(e.hot, l, h, nFeatures) >= 0 {
			return t
		}
	}
	return hi
}

// treeFault describes why tree t, the lowest faulty one, was refused.
func (e *CompiledEnsemble) treeFault(t, nFeatures int) error {
	lo, hi := e.roots[t], e.treeEnd(t)
	if lo < 0 || hi <= lo || int(hi) > len(e.hot) {
		return fmt.Errorf("ml: corrupt tree: tree %d spans records [%d, %d) of %d", t, lo, hi, len(e.hot))
	}
	i := badRecord(e.hot, lo, hi, int32(nFeatures))
	switch n := e.hot[i]; {
	case n.feature < 0:
		return fmt.Errorf("ml: corrupt tree: leaf %d of tree %d has feature %d and right child %d, not -1 and 0", i, t, n.feature, n.right)
	case int(n.feature) >= nFeatures:
		return fmt.Errorf("ml: corrupt tree: internal node %d of tree %d splits on feature %d of %d", i, t, n.feature, nFeatures)
	default:
		return fmt.Errorf("ml: corrupt tree: internal node %d of tree %d has right child %d outside (%d, %d)", i, t, n.right, i+1, hi)
	}
}

// badRecord returns the first index in [lo, hi) whose record a walk of
// the tree hot[lo:hi] could not follow (see adoptRecords), or -1.
// Leaves and splits alternate unpredictably, so the verdicts are folded
// together with no branch; only a table that fails is scanned twice.
func badRecord(hot []hotNode, lo, hi, nFeatures int32) int32 {
	var bad int64
	for i, n := range hot[lo:hi] {
		bad |= recordFault(n, int64(lo)+int64(i), int64(hi), int64(nFeatures))
	}
	if bad == 0 {
		return -1
	}
	for i, n := range hot[lo:hi] {
		if recordFault(n, int64(lo)+int64(i), int64(hi), int64(nFeatures)) != 0 {
			return lo + int32(i)
		}
	}
	return -1
}

// recordFault is non-zero when record n at index at of a tree ending at
// hi is neither a canonical leaf nor a followable split. Each bound is
// a subtraction whose sign says which side of it a field lies on, and
// the feature's sign mask selects the leaf or the split verdict, so the
// check is a dozen ALU operations with no compare-and-set.
func recordFault(n hotNode, at, hi, nFeatures int64) int64 {
	f, r := int64(n.feature), int64(n.right)
	leaf := f >> 63 // all ones for a leaf, else zero
	// Negative when the right child is at or before the left one or at
	// or past the tree's end, or the feature is past the arity.
	split := (r - at - 2) | (hi - 1 - r) | ^(f - nFeatures)
	return ((f+1)|r)&leaf | split>>63&^leaf
}

// growth is a fit's walk table in the making. Each tree grows straight
// into its own slot, sized by the tree's node bound (TreeConfig.maxNodes)
// and laid end to end in tree order, so trees grow concurrently with no
// staging to copy out of, and a fit's bytes depend only on its data and
// seed. pack then closes the gaps the bounds leave. The table is a
// fresh allocation, or one taken on a lease (see Tables) when the model
// is scored and dropped within one FitScore call.
type growth struct {
	hot    []hotNode
	slots  []int32 // slots[t] is tree t's first index
	sizes  []int32 // sizes[t] is the node count tree t grew
	leased bool
}

// newGrowth lays out slots of bounds[t] nodes, in a table taken on l or
// allocated when l is nil, refusing a layout int32 node indices cannot
// address.
func newGrowth(bounds []int, l *lease) (*growth, error) {
	slots, total, err := fusedRoots(len(bounds), func(t int) int { return bounds[t] })
	if err != nil {
		return nil, err
	}
	g := &growth{slots: slots, sizes: make([]int32, len(bounds)), leased: l != nil}
	if g.leased {
		g.hot = l.table(total)
	} else {
		g.hot = make([]hotNode, total)
	}
	return g, nil
}

// slot returns tree t's slot.
func (g *growth) slot(t int) []hotNode {
	lo, hi := int(g.slots[t]), len(g.hot)
	if t+1 < len(g.slots) {
		hi = int(g.slots[t+1])
	}
	return g.hot[lo:hi:hi]
}

// pack moves every grown tree down against its predecessor, rebasing
// its right children from tree-local to fused indices, and makes
// trees[t] a view of its range. The bounds are within 3 % of the grown
// trees on the paper's workloads, but nodes that stop early (pure
// responses, MinSamplesSplit, a depth limit short of full) can leave a
// table mostly empty: an allocated one that is more than a quarter
// empty is copied to exact size, so a kept model never keeps much more
// than its nodes. A leased table is used as it stands: its model is
// dropped within the call, and the lease takes the whole table back.
func (g *growth) pack(trees []*DecisionTree) *CompiledEnsemble {
	roots, end := g.slots, int32(0)
	for t, size := range g.sizes {
		lo := roots[t]
		for i := range size {
			h := g.hot[lo+i]
			h.right += end &^ (h.feature >> 31) // leaves keep right 0
			g.hot[end+i] = h
		}
		roots[t] = end
		end += size
	}
	hot := g.hot[:end:end]
	if !g.leased && 4*len(hot) < 3*len(g.hot) {
		hot = slices.Clone(hot)
	}
	e := &CompiledEnsemble{hot: hot, roots: roots}
	e.views(trees)
	return e
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
