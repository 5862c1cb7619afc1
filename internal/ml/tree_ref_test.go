package ml

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"lam/internal/xmath"
)

// The reference tree builder: the allocating builder every model was
// fitted with before the pooled one in tree.go replaced it, kept as the
// executable spec (like refFused in compiled_test.go). It partitions
// into two fresh index slices per node, sorts with sort.Slice, seeds a
// fresh RNG per tree, reads the row-major matrix, and gives forests
// their bootstrap as copied row headers. The pooled builder
// must reproduce its trees node for node, bit for bit
// (TestTreeBuilderMatchesReference).

// refGrow appends a leaf node and returns its index.
func refGrow(c *nodeTable, value float64) int32 {
	idx := int32(len(c.feature))
	c.feature = append(c.feature, -1)
	c.threshold = append(c.threshold, 0)
	c.value = append(c.value, value)
	c.right = append(c.right, -1)
	return idx
}

type refTreeBuilder struct {
	X           [][]float64
	y           []float64
	cfg         TreeConfig
	rng         *rand.Rand
	nFeatures   int
	importances []float64
	featBuf     []int
	scratch     []splitSample
	out         nodeTable
	// leafRechecks counts the nodes the post-partition MinSamplesLeaf
	// re-check turned back into leaves.
	leafRechecks int
}

// refFitTree is DecisionTree.Fit over the reference builder.
func refFitTree(cfg TreeConfig, X [][]float64, y []float64) *DecisionTree {
	t, _ := refFitTreeCounting(cfg, X, y)
	return t
}

func refFitTreeCounting(cfg TreeConfig, X [][]float64, y []float64) (*DecisionTree, int) {
	p := len(X[0])
	t := NewDecisionTree(cfg)
	cfg = cfg.normalized()
	idx := make([]int, len(X))
	for i := range idx {
		idx[i] = i
	}
	importances := make([]float64, p)
	b := &refTreeBuilder{
		X: X, y: y, cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed)),
		nFeatures: p, importances: importances,
		featBuf: make([]int, p),
		scratch: make([]splitSample, len(X)),
	}
	b.build(idx, 1)
	total := 0.0
	for _, v := range importances {
		total += v
	}
	if total > 0 {
		for i := range importances {
			importances[i] /= total
		}
	}
	t.nFeatures = p
	t.importances = importances
	if _, err := compileEnsemble([]*DecisionTree{t}, []nodeTable{b.out}); err != nil {
		panic(err)
	}
	// The packed records must read back exactly what was grown: the
	// differential tests compare trees through them.
	got := treeTable(&t.nodes)
	for i := range b.out.feature {
		if got.feature[i] != b.out.feature[i] || got.right[i] != b.out.right[i] ||
			math.Float64bits(got.threshold[i]) != math.Float64bits(b.out.threshold[i]) {
			panic(fmt.Sprintf("reference node %d reads back as (%d, %v, %d), grown as (%d, %v, %d)", i,
				got.feature[i], got.threshold[i], got.right[i], b.out.feature[i], b.out.threshold[i], b.out.right[i]))
		}
	}
	return t, b.leafRechecks
}

func (b *refTreeBuilder) build(idx []int, depth int) int32 {
	n := len(idx)
	sum, sum2 := 0.0, 0.0
	for _, i := range idx {
		sum += b.y[i]
		sum2 += b.y[i] * b.y[i]
	}
	mean := sum / float64(n)
	sse := sum2 - sum*sum/float64(n)
	node := refGrow(&b.out, mean)

	if n < b.cfg.MinSamplesSplit ||
		(b.cfg.MaxDepth > 0 && depth >= b.cfg.MaxDepth) ||
		sse <= 1e-12 {
		return node
	}

	feat, thr, gain, ok := b.findSplit(idx, sse)
	if !ok {
		return node
	}

	left := make([]int, 0, n)
	right := make([]int, 0, n)
	for _, i := range idx {
		if b.X[i][feat] <= thr {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) < b.cfg.MinSamplesLeaf || len(right) < b.cfg.MinSamplesLeaf {
		b.leafRechecks++
		return node
	}

	b.importances[feat] += gain
	l := b.build(left, depth+1)
	r := b.build(right, depth+1)
	if l != node+1 {
		panic("reference builder broke the preorder invariant")
	}
	b.out.feature[node] = int32(feat)
	b.out.threshold[node] = thr
	b.out.right[node] = r
	return node
}

func (b *refTreeBuilder) candidateFeatures() []int {
	k := b.cfg.MaxFeatures
	if k <= 0 || k >= b.nFeatures {
		for i := range b.featBuf {
			b.featBuf[i] = i
		}
		return b.featBuf
	}
	for i := range b.featBuf {
		b.featBuf[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + b.rng.Intn(b.nFeatures-i)
		b.featBuf[i], b.featBuf[j] = b.featBuf[j], b.featBuf[i]
	}
	return b.featBuf[:k]
}

func (b *refTreeBuilder) findSplit(idx []int, parentSSE float64) (feat int, thr float64, gain float64, ok bool) {
	bestSSE := math.Inf(1)
	for _, f := range b.candidateFeatures() {
		var t float64
		var s float64
		var valid bool
		if b.cfg.Splitter == RandomSplitter {
			t, s, valid = b.randomSplit(idx, f)
		} else {
			t, s, valid = b.bestSplit(idx, f)
		}
		if valid && s < bestSSE {
			bestSSE, feat, thr, ok = s, f, t, true
		}
	}
	if !ok {
		return 0, 0, 0, false
	}
	gain = parentSSE - bestSSE
	if gain <= 0 {
		if b.cfg.Splitter == BestSplitter {
			return 0, 0, 0, false
		}
		gain = 0
	}
	return feat, thr, gain, true
}

func (b *refTreeBuilder) bestSplit(idx []int, f int) (thr, sse float64, ok bool) {
	n := len(idx)
	ss := b.scratch[:n]
	for k, i := range idx {
		ss[k] = splitSample{v: b.X[i][f], y: b.y[i]}
	}
	sort.Slice(ss, func(a, c int) bool { return ss[a].v < ss[c].v })
	if ss[0].v == ss[n-1].v {
		return 0, 0, false
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
			continue
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
			if thr >= ss[k+1].v {
				thr = ss[k].v
			}
			ok = true
		}
	}
	return thr, best, ok
}

func (b *refTreeBuilder) randomSplit(idx []int, f int) (thr, sse float64, ok bool) {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, i := range idx {
		v := b.X[i][f]
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
	if thr >= hi {
		thr = lo
	}

	nl, nr := 0, 0
	leftSum, leftSum2, rightSum, rightSum2 := 0.0, 0.0, 0.0, 0.0
	for _, i := range idx {
		y := b.y[i]
		if b.X[i][f] <= thr {
			nl++
			leftSum += y
			leftSum2 += y * y
		} else {
			nr++
			rightSum += y
			rightSum2 += y * y
		}
	}
	if nl < b.cfg.MinSamplesLeaf || nr < b.cfg.MinSamplesLeaf {
		return 0, 0, false
	}
	sse = (leftSum2 - leftSum*leftSum/float64(nl)) +
		(rightSum2 - rightSum*rightSum/float64(nr))
	return thr, sse, true
}

// refBootstrapRows is the row-header copy forests resampled with: one
// rng.Intn(len(X)) per drawn sample from a fresh source.
func refBootstrapRows(X [][]float64, y []float64, seed int64) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	bx := make([][]float64, len(X))
	by := make([]float64, len(X))
	for i := range bx {
		j := rng.Intn(len(X))
		bx[i] = X[j]
		by[i] = y[j]
	}
	return bx, by
}

// refFitForest grows f's member trees the way Forest.FitCtx did.
func refFitForest(f *Forest, X [][]float64, y []float64) []*DecisionTree {
	nTrees := f.NTrees
	if nTrees < 1 {
		nTrees = 100
	}
	trees := make([]*DecisionTree, nTrees)
	for t := range trees {
		cfg := f.Tree
		cfg.Seed = int64(xmath.Hash64(uint64(f.Seed), uint64(t), 0x7265657301))
		tx, ty := X, y
		if f.Bootstrap {
			tx, ty = refBootstrapRows(X, y, int64(xmath.Hash64(uint64(f.Seed), uint64(t), 0x626f6f74)))
		}
		trees[t] = refFitTree(cfg, tx, ty)
	}
	return trees
}
