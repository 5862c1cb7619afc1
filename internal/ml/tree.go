package ml

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"

	"lam/internal/parallel"
	"lam/internal/xmath"
)

// Splitter selects how a tree node chooses its split threshold.
type Splitter int

const (
	// BestSplitter scans every candidate threshold and picks the one
	// minimising the weighted sum of squared errors (classic CART).
	BestSplitter Splitter = iota
	// RandomSplitter draws one uniform random threshold per candidate
	// feature and keeps the best feature — the extra-trees rule of
	// Geurts et al. that the paper's best-performing model uses.
	RandomSplitter
)

func (s Splitter) String() string {
	switch s {
	case BestSplitter:
		return "best"
	case RandomSplitter:
		return "random"
	default:
		return fmt.Sprintf("Splitter(%d)", int(s))
	}
}

// TreeConfig holds the hyperparameters of a regression tree. The zero
// value is a fully grown CART tree (unlimited depth, best splits, all
// features considered at every node).
type TreeConfig struct {
	// MaxDepth bounds the tree depth; 0 means unlimited.
	MaxDepth int
	// MinSamplesSplit is the minimum node size eligible for splitting.
	// Values below 2 are treated as 2.
	MinSamplesSplit int
	// MinSamplesLeaf is the minimum number of samples a child may hold.
	// Values below 1 are treated as 1.
	MinSamplesLeaf int
	// MaxFeatures is the number of features examined per node; 0 means
	// all features.
	MaxFeatures int
	// Splitter selects CART best-split or extra-trees random-split.
	Splitter Splitter
	// Seed drives every random choice (feature subsets, random
	// thresholds). Trees with equal config, seed and data are identical.
	Seed int64
}

func (c TreeConfig) normalized() TreeConfig {
	if c.MinSamplesSplit < 2 {
		c.MinSamplesSplit = 2
	}
	if c.MinSamplesLeaf < 1 {
		c.MinSamplesLeaf = 1
	}
	return c
}

// maxNodes bounds the nodes of a tree grown over n samples that carry
// distinct row classes (see rowClasses). Samples of one class never
// part, and every leaf holds at least MinSamplesLeaf samples, so a tree
// has at most min(distinct, n/MinSamplesLeaf) leaves and one fewer
// splits; a depth limit caps it at 2^MaxDepth-1 nodes.
func (c TreeConfig) maxNodes(n, distinct int) int {
	c = c.normalized()
	nodes := 2*max(1, min(distinct, n/c.MinSamplesLeaf)) - 1
	if d := c.MaxDepth; d > 0 && d < 31 {
		nodes = min(nodes, 1<<d-1)
	}
	return nodes
}

// DecisionTree is a CART regression tree (variance-reduction splitting)
// with an optional extra-trees random splitter. The fitted tree is
// stored directly in compiled form — a range of a packed preorder walk
// table (CompiledTree) — so prediction is an iterative,
// allocation-free index walk with no pointer chasing.
type DecisionTree struct {
	Config TreeConfig

	nodes       CompiledTree
	nFeatures   int
	importances []float64
}

// NewDecisionTree returns a tree with the given configuration.
func NewDecisionTree(cfg TreeConfig) *DecisionTree {
	return &DecisionTree{Config: cfg}
}

// IsFitted reports whether the tree has been grown.
func (t *DecisionTree) IsFitted() bool { return t.nodes.Len() > 0 }

// NumFeatures returns the feature arity the tree was fitted on (0
// before Fit).
func (t *DecisionTree) NumFeatures() int { return t.nFeatures }

// Fit grows the tree on (X, y) straight into its own walk table. A
// failed fit leaves the receiver untouched: fitted state is assigned
// only once the tree is grown.
func (t *DecisionTree) Fit(X [][]float64, y []float64) error {
	return t.fitLeased(context.Background(), X, y, nil)
}

// fitLeased is Fit with the walk table taken on l (see leasedFitter).
// A tree is one unit of work, so ctx is checked once, before it grows.
func (t *DecisionTree) fitLeased(ctx context.Context, X [][]float64, y []float64, l *lease) error {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return parallel.Cancelled(err)
		}
	}
	p, err := checkXY(X, y)
	if err != nil {
		return err
	}
	n, cols := len(X), columnView(X)
	_, distinct := rowClasses(cols)
	g, err := newGrowth([]int{t.Config.maxNodes(n, distinct)}, l)
	if err != nil {
		return err
	}
	b := getTreeBuilder()
	defer b.release()
	b.sampleAll(n)
	imp := make([]float64, p)
	g.sizes[0] = b.fit(t.Config, cols, y, imp, g.slot(0))
	g.pack([]*DecisionTree{t})
	t.nFeatures, t.importances = p, imp
	return nil
}

// unfit drops the fitted tree (see leasedFitter).
func (t *DecisionTree) unfit() {
	t.nodes, t.nFeatures, t.importances = CompiledTree{}, 0, nil
}

// Predict returns the fitted response for x: an iterative walk over
// the packed walk table. Allocation-free.
func (t *DecisionTree) Predict(x []float64) float64 {
	if t.nodes.Len() == 0 {
		panic("ml: DecisionTree.Predict called before Fit")
	}
	if len(x) != t.nFeatures {
		panic(fmt.Sprintf("ml: DecisionTree.Predict got %d features, want %d", len(x), t.nFeatures))
	}
	return predictHot(t.nodes.hot, t.nodes.root, x)
}

// predictBatchIntoSeq implements the compiled plane's sequential block
// contract: a bare iterative walk per row (rows are pre-validated).
func (t *DecisionTree) predictBatchIntoSeq(X [][]float64, out []float64) {
	for i, x := range X {
		out[i] = predictHot(t.nodes.hot, t.nodes.root, x)
	}
}

// columnView transposes a validated design matrix into one column-major
// block: cols[f][i] == X[i][f]. It is built once per fit and shared
// read-only by every tree of an ensemble, so the split search streams a
// feature's column instead of chasing one row header per sample per
// candidate feature, and a bootstrap or subsample is an index list into
// it rather than a copied row set.
func columnView(X [][]float64) [][]float64 {
	n, p := len(X), len(X[0])
	flat := make([]float64, n*p)
	cols := make([][]float64, p)
	for f := range cols {
		cols[f] = flat[f*n : (f+1)*n : (f+1)*n]
	}
	for i, row := range X {
		for f, v := range row {
			cols[f][i] = v
		}
	}
	return cols
}

// rowClasses labels every row of a column view with a class shared by
// exactly the rows whose features are bitwise equal to its own, and
// returns the labels (in [0, n)) and their number. Rows of one class
// compare alike against every threshold, so no split parts them.
func rowClasses(cols [][]float64) (class []int, distinct int) {
	n := len(cols[0])
	cmpRows := func(a, b int) int {
		for _, col := range cols {
			if c := cmp.Compare(math.Float64bits(col[a]), math.Float64bits(col[b])); c != 0 {
				return c
			}
		}
		return 0
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, cmpRows)
	class = make([]int, n)
	for k, i := range order {
		if k > 0 && cmpRows(order[k-1], i) == 0 {
			class[i] = class[order[k-1]]
		} else {
			class[i], distinct = i, distinct+1
		}
	}
	return class, distinct
}

// splitSample pairs one feature value with its response for sorting.
type splitSample struct {
	v, y float64
}

// splitFunc is the split-search strategy: it scores one candidate
// feature, given as its column of the training view, over a node's
// samples and returns the threshold and the children's summed squared
// error. ok is false when the feature admits no valid split there.
type splitFunc func(b *treeBuilder, col []float64, idx []int) (thr, sse float64, ok bool)

// treeBuilder owns all the working memory of growing one tree and is
// recycled through treeBuilderPool, so a warmed fit allocates only what
// the fitted tree keeps (its slot of the walk table and its
// importances).
//
// idx is the tree's one sample-index array — positions into the column
// view, with repeats for a bootstrap. Each split partitions the node's
// range of it stably in place: lefts compact forward, rights pass
// through tmp and are copied back behind them, and the children are the
// two sub-ranges. Every node therefore sees its samples in its parent's
// order — the order the allocating builder's two appended slices had —
// so every sum folds in the same sequence and every sort starts from
// the same permutation: the grown tree is bit-identical to that
// builder's (tree_ref_test.go keeps it as the spec).
//
// The tree is grown in preorder (parent, left subtree, right subtree)
// straight into out, its slot of the fit's walk table (see growth), as
// packed records with tree-local right children; size counts the nodes
// grown so far.
//
// cols, y, importances and out belong to the fit in progress, not to
// the builder; release drops them so a pooled builder never pins a
// caller's training set or model.
type treeBuilder struct {
	cols        [][]float64
	y           []float64
	importances []float64
	out         []hotNode
	size        int32
	cfg         TreeConfig
	split       splitFunc // chosen once per tree from cfg.Splitter

	rng     *rand.Rand
	idx     []int
	tmp     []int
	featBuf []int
	scratch []splitSample
}

var treeBuilderPool = sync.Pool{New: func() any {
	return &treeBuilder{rng: rand.New(new(xmath.Source))}
}}

func getTreeBuilder() *treeBuilder { return treeBuilderPool.Get().(*treeBuilder) }

// release returns the builder to the pool holding nothing of the fit it
// served but its own scratch.
func (b *treeBuilder) release() {
	b.cols, b.y, b.importances, b.out = nil, nil, nil, nil
	treeBuilderPool.Put(b)
}

// samples resizes the index array to n entries for the caller to fill.
func (b *treeBuilder) samples(n int) []int {
	if cap(b.idx) < n {
		b.idx = make([]int, n)
	}
	b.idx = b.idx[:n]
	return b.idx
}

// sampleAll selects every one of n training samples, in order.
func (b *treeBuilder) sampleAll(n int) {
	idx := b.samples(n)
	for i := range idx {
		idx[i] = i
	}
}

// sampleBootstrap draws n samples of n with replacement: one
// rng.Intn(n) per sample from the stream rand.NewSource(seed) starts.
func (b *treeBuilder) sampleBootstrap(seed int64, n int) {
	b.rng.Seed(seed)
	idx := b.samples(n)
	for i := range idx {
		idx[i] = b.rng.Intn(n)
	}
}

// distinct counts the row classes (see rowClasses) of the samples a
// bootstrap selected, marking them in tmp.
func (b *treeBuilder) distinct(class []int) int {
	n := len(class)
	if cap(b.tmp) < n {
		b.tmp = make([]int, n)
	}
	seen := b.tmp[:n]
	clear(seen)
	d := 0
	for _, i := range b.idx {
		d += 1 - seen[class[i]]
		seen[class[i]] = 1
	}
	return d
}

// fit grows a tree of config cfg over the selected samples of the
// column view and response into out, which must hold cfg.maxNodes of
// the samples and their row classes nodes, and its normalised
// feature importances into importances (len(cols) zeros on entry). It
// returns the number of nodes grown.
func (b *treeBuilder) fit(cfg TreeConfig, cols [][]float64, y, importances []float64, out []hotNode) int32 {
	p, n := len(cols), len(b.idx)
	b.cols, b.y, b.importances, b.out, b.size = cols, y, importances, out, 0
	b.cfg = cfg.normalized()
	b.split = (*treeBuilder).randomSplit
	if b.cfg.Splitter != RandomSplitter {
		b.split = (*treeBuilder).bestSplit
		if cap(b.scratch) < n {
			b.scratch = make([]splitSample, n)
		}
	}
	// Same stream as rand.New(rand.NewSource(Seed)) without the 4.9 kB
	// source per tree, and seeded at a third of its cost.
	b.rng.Seed(b.cfg.Seed)
	if cap(b.tmp) < n {
		b.tmp = make([]int, n)
	}
	if cap(b.featBuf) < p {
		b.featBuf = make([]int, p)
	}
	b.featBuf = b.featBuf[:p]

	b.build(b.idx, 1)

	// Normalise importances to sum to 1 (when any split happened).
	total := 0.0
	for _, v := range b.importances {
		total += v
	}
	if total > 0 {
		for i := range b.importances {
			b.importances[i] /= total
		}
	}
	return b.size
}

// build grows the subtree over the sample indices idx (a range of
// b.idx, reordered in place) at the given depth and returns its root's
// index in the node table.
func (b *treeBuilder) build(idx []int, depth int) int32 {
	n := len(idx)
	sum, sum2 := 0.0, 0.0
	for _, i := range idx {
		sum += b.y[i]
		sum2 += b.y[i] * b.y[i]
	}
	mean := sum / float64(n)
	sse := sum2 - sum*sum/float64(n)
	// A node starts as a canonical leaf.
	node := b.size
	b.size++
	b.out[node] = hotNode{threshold: mean, feature: -1}

	if n < b.cfg.MinSamplesSplit ||
		(b.cfg.MaxDepth > 0 && depth >= b.cfg.MaxDepth) ||
		sse <= 1e-12 {
		return node
	}

	feat, thr, gain, ok := b.findSplit(idx, sse)
	if !ok {
		return node
	}

	// Which side a sample takes is a coin flip the branch predictor
	// loses, so both destinations are written and only the cursors
	// depend on the comparison (idx[k] trails the read position, so the
	// in-place write never clobbers an unread sample).
	col, rights := b.cols[feat], b.tmp[:n]
	k := 0
	for j, i := range idx {
		idx[k] = i
		rights[j-k] = i
		k += int(b2i32(col[i] <= thr))
	}
	copy(idx[k:], rights)
	// Not redundant with the splitters' own MinSamplesLeaf checks:
	// bestSplit counts a side by sorted position, the partition by
	// `<= thr`, and the two disagree when the feature holds NaN (a NaN
	// threshold sends every sample right). Without this an empty child
	// would recurse on the whole node forever.
	if k < b.cfg.MinSamplesLeaf || n-k < b.cfg.MinSamplesLeaf {
		return node
	}

	b.importances[feat] += gain
	// The left subtree must start at node+1 — the canonical-preorder
	// invariant every traversal rests on (left children are implicit).
	// Asserted so a builder change cannot silently corrupt the walk.
	if l := b.build(idx[:k], depth+1); l != node+1 {
		panic(fmt.Sprintf("ml: tree builder broke the preorder invariant: node %d has left child %d, want %d", node, l, node+1))
	}
	r := b.build(idx[k:], depth+1)
	b.out[node] = hotNode{threshold: thr, feature: int32(feat), right: r}
	return node
}

// candidateFeatures fills b.featBuf with the features to examine at one
// node: all of them, or a MaxFeatures-sized random subset.
func (b *treeBuilder) candidateFeatures() []int {
	for i := range b.featBuf {
		b.featBuf[i] = i
	}
	k, p := b.cfg.MaxFeatures, len(b.featBuf)
	if k <= 0 || k >= p {
		return b.featBuf
	}
	// Partial Fisher-Yates for a k-subset.
	for i := 0; i < k; i++ {
		j := i + b.rng.Intn(p-i)
		b.featBuf[i], b.featBuf[j] = b.featBuf[j], b.featBuf[i]
	}
	return b.featBuf[:k]
}

// findSplit returns the best (feature, threshold) pair at a node along
// with the impurity decrease. ok is false when no valid split exists.
func (b *treeBuilder) findSplit(idx []int, parentSSE float64) (feat int, thr float64, gain float64, ok bool) {
	bestSSE := math.Inf(1)
	for _, f := range b.candidateFeatures() {
		t, s, valid := b.split(b, b.cols[f], idx)
		if valid && s < bestSSE {
			bestSSE, feat, thr, ok = s, f, t, true
		}
	}
	if !ok {
		return 0, 0, 0, false
	}
	gain = parentSSE - bestSSE
	if gain <= 0 {
		// A split that does not decrease impurity is only kept for the
		// random splitter, where the theory expects occasional neutral
		// splits; CART stops.
		if b.cfg.Splitter == BestSplitter {
			return 0, 0, 0, false
		}
		gain = 0
	}
	return feat, thr, gain, true
}

// bestSplit scans all midpoints of one feature column (CART exact
// search).
func (b *treeBuilder) bestSplit(col []float64, idx []int) (thr, sse float64, ok bool) {
	n := len(idx)
	ss := b.scratch[:n]
	for k, i := range idx {
		ss[k] = splitSample{v: col[i], y: b.y[i]}
	}
	// The comparator is spelled out rather than cmp.Compare, which
	// orders NaN first: this one calls NaN equal to everything, exactly
	// as `a.v < c.v` under sort.Slice did, so pdqsort takes the same
	// decisions and ties land in the same order.
	slices.SortFunc(ss, func(a, c splitSample) int {
		if a.v < c.v {
			return -1
		}
		if c.v < a.v {
			return 1
		}
		return 0
	})
	if ss[0].v == ss[n-1].v {
		return 0, 0, false // constant feature
	}

	totalSum, totalSum2 := 0.0, 0.0
	for _, s := range ss {
		totalSum += s.y
		totalSum2 += s.y * s.y
	}

	minLeaf := b.cfg.MinSamplesLeaf
	best := math.Inf(1)
	leftSum, leftSum2 := 0.0, 0.0
	for k := 0; k < n-1; k++ {
		leftSum += ss[k].y
		leftSum2 += ss[k].y * ss[k].y
		if ss[k].v == ss[k+1].v {
			continue // cannot split between equal values
		}
		nl := k + 1
		nr := n - nl
		if nl < minLeaf || nr < minLeaf {
			continue
		}
		rightSum := totalSum - leftSum
		rightSum2 := totalSum2 - leftSum2
		s := (leftSum2 - leftSum*leftSum/float64(nl)) +
			(rightSum2 - rightSum*rightSum/float64(nr))
		if s < best {
			best = s
			thr = ss[k].v + (ss[k+1].v-ss[k].v)/2
			// Guard against midpoint rounding onto the upper value,
			// which would send equal values both ways inconsistently.
			if thr >= ss[k+1].v {
				thr = ss[k].v
			}
			ok = true
		}
	}
	return thr, best, ok
}

// randomSplit draws one uniform threshold in (min, max) of one feature
// column (extra-trees rule) and scores it.
func (b *treeBuilder) randomSplit(col []float64, idx []int) (thr, sse float64, ok bool) {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, i := range idx {
		v := col[i]
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if lo == hi {
		return 0, 0, false
	}
	thr = lo + b.rng.Float64()*(hi-lo)
	if thr >= hi { // keep the right side non-empty
		thr = lo
	}

	// Branch-free scoring: each sample's response is added to its own
	// side and +0 to the other. An accumulator that starts at +0 can
	// never become -0, so adding +0 leaves its bits alone and each side
	// folds exactly the values, in exactly the order, a branch would
	// have given it.
	nl := 0
	leftSum, leftSum2, rightSum, rightSum2 := 0.0, 0.0, 0.0, 0.0
	for _, i := range idx {
		left := b2i32(col[i] <= thr)
		nl += int(left)
		yb, mask := math.Float64bits(b.y[i]), uint64(-int64(left)) // all ones when left
		yl := math.Float64frombits(yb & mask)
		yr := math.Float64frombits(yb &^ mask)
		leftSum += yl
		leftSum2 += yl * yl
		rightSum += yr
		rightSum2 += yr * yr
	}
	nr := len(idx) - nl
	if nl < b.cfg.MinSamplesLeaf || nr < b.cfg.MinSamplesLeaf {
		return 0, 0, false
	}
	sse = (leftSum2 - leftSum*leftSum/float64(nl)) +
		(rightSum2 - rightSum*rightSum/float64(nr))
	return thr, sse, true
}
