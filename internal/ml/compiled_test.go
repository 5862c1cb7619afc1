package ml

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// The legacy pointer-tree representation, retained here as the
// executable specification of tree traversal: before the compiled
// inference plane, fitted trees were heap-allocated refNode graphs
// walked exactly like refNode.predict below. The equivalence tests
// rebuild that form from the compiled node tables and assert the two
// traversals agree bit for bit; the benchmarks in
// compiled_bench_test.go use it as the recursive baseline.

type refNode struct {
	feature   int
	threshold float64
	value     float64
	left      *refNode
	right     *refNode
}

func (n *refNode) predict(x []float64) float64 {
	if n.feature < 0 {
		return n.value
	}
	if x[n.feature] <= n.threshold {
		return n.left.predict(x)
	}
	return n.right.predict(x)
}

// split returns node i's split fields as the legacy tree builder wrote
// them. A packed leaf keeps none of them, so every leaf reads feature
// -1, threshold 0 and right -1 whatever the table it was packed from
// held: a leaf's split fields are not part of the model.
func (c *CompiledTree) split(i int) (feature int32, threshold float64, right int32) {
	n := c.hot[int(c.root)+i]
	if n.feature < 0 {
		return -1, 0, -1
	}
	return n.feature, n.threshold, n.right - c.root
}

// treeTable reads a compiled tree back into legacy node columns from
// its packed records: the split fields, and a leaf's value (an
// internal node's reads 0 — the records keep no per-node mean).
func treeTable(c *CompiledTree) nodeTable {
	n := c.Len()
	tab := nodeTable{feature: make([]int32, n), threshold: make([]float64, n), value: make([]float64, n), right: make([]int32, n)}
	for i := range n {
		tab.feature[i], tab.threshold[i], tab.right[i] = c.split(i)
		if tab.feature[i] < 0 {
			tab.value[i] = c.hot[int(c.root)+i].threshold
		}
	}
	return tab
}

// refTree rebuilds the pointer form of a compiled tree.
func refTree(c *CompiledTree) *refNode {
	tab := treeTable(c)
	return buildRef(&tab, 0)
}

func buildRef(c *nodeTable, i int32) *refNode {
	n := &refNode{feature: int(c.feature[i]), threshold: c.threshold[i], value: c.value[i]}
	if c.feature[i] >= 0 {
		n.left = buildRef(c, i+1) // canonical preorder: left child is implicit
		n.right = buildRef(c, c.right[i])
	}
	return n
}

// refForestPredict is the pre-refactor Forest.Predict: per-tree
// recursive walks summed in tree order, then averaged.
func refForestPredict(trees []*refNode, x []float64) float64 {
	s := 0.0
	for _, t := range trees {
		s += t.predict(x)
	}
	return s / float64(len(trees))
}

func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

// randomRegression draws a dataset with deliberately coarse feature
// values (ties matter: equal values exercise the can't-split-between-
// equal-values branches) and a noisy nonlinear response.
func randomRegression(rng *rand.Rand, n, p int) ([][]float64, []float64) {
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		X[i] = make([]float64, p)
		for j := range X[i] {
			X[i][j] = math.Round(rng.NormFloat64()*8) / 4
		}
		y[i] = math.Sin(X[i][0]) + 0.5*X[i][p-1] + rng.NormFloat64()*0.2
	}
	return X, y
}

func randomTreeConfig(rng *rand.Rand) TreeConfig {
	return TreeConfig{
		MaxDepth:        rng.Intn(8), // 0 = unlimited
		MinSamplesSplit: rng.Intn(8), // < 2 normalises to 2
		MinSamplesLeaf:  rng.Intn(5), // < 1 normalises to 1
		MaxFeatures:     rng.Intn(7), // 0 = all; may exceed p
		Splitter:        Splitter(rng.Intn(2)),
		Seed:            rng.Int63(),
	}
}

// TestCompiledEquivalence is the property test of the compiled
// inference plane: across random tree configurations and random
// datasets, the compiled iterative traversal must produce bit-identical
// predictions to the legacy recursive pointer walk — single vector,
// batch and Into-batch — for both tree-based estimators.
func TestCompiledEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(0x1ab))
	for trial := 0; trial < 20; trial++ {
		n := 30 + rng.Intn(170)
		p := 1 + rng.Intn(6)
		X, y := randomRegression(rng, n, p)
		Xq, _ := randomRegression(rng, 64, p)
		cfg := randomTreeConfig(rng)

		t.Run("", func(t *testing.T) {
			// Single tree.
			tree := NewDecisionTree(cfg)
			if err := tree.Fit(X, y); err != nil {
				t.Fatal(err)
			}
			ref := refTree(&tree.nodes)
			for _, x := range Xq {
				if got, want := tree.Predict(x), ref.predict(x); !sameBits(got, want) {
					t.Fatalf("tree: compiled %x != recursive %x (cfg %+v)", got, want, cfg)
				}
			}

			// Forest (random bootstrap choice).
			f := &Forest{NTrees: 2 + rng.Intn(8), Tree: cfg, Bootstrap: rng.Intn(2) == 0, Seed: rng.Int63()}
			if err := f.Fit(X, y); err != nil {
				t.Fatal(err)
			}
			refs := make([]*refNode, len(f.trees))
			for i, tr := range f.trees {
				refs[i] = refTree(&tr.nodes)
			}
			batch := predictAll(t, f, Xq)
			into := make([]float64, len(Xq))
			if err := PredictBatchInto(f, Xq, into, 1); err != nil {
				t.Fatal(err)
			}
			for i, x := range Xq {
				want := refForestPredict(refs, x)
				if got := f.Predict(x); !sameBits(got, want) {
					t.Fatalf("forest: compiled %x != recursive %x", got, want)
				}
				if !sameBits(batch[i], want) || !sameBits(into[i], want) {
					t.Fatalf("forest batch row %d: batch %x into %x want %x", i, batch[i], into[i], want)
				}
			}

		})
	}
}

// TestCompiledEquivalenceTreeMajor crosses the batchTreeMajorMinNodes
// cutoff so batch scoring takes the tree-major traversal, and
// asserts it stays bit-identical to per-row Predict calls and to the
// recursive reference.
func TestCompiledEquivalenceTreeMajor(t *testing.T) {
	rng := rand.New(rand.NewSource(0xbeef))
	X, y := randomRegression(rng, 500, 5)
	Xq, _ := randomRegression(rng, 100, 5)

	f := &Forest{NTrees: 40, Tree: TreeConfig{Splitter: RandomSplitter}, Seed: 11, Workers: 1}
	if err := f.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if n := f.compiled.NumNodes(); n < batchTreeMajorMinNodes {
		t.Fatalf("setup too small for the tree-major path: %d nodes", n)
	}
	refs := make([]*refNode, len(f.trees))
	for i, tr := range f.trees {
		refs[i] = refTree(&tr.nodes)
	}
	out := make([]float64, len(Xq))
	if err := PredictBatchInto(f, Xq, out, 1); err != nil {
		t.Fatal(err)
	}
	for i, x := range Xq {
		want := refForestPredict(refs, x)
		if !sameBits(out[i], want) {
			t.Fatalf("tree-major row %d: %x != recursive %x", i, out[i], want)
		}
		if got := f.Predict(x); !sameBits(out[i], got) {
			t.Fatalf("tree-major row %d: batch %x != single %x", i, out[i], got)
		}
	}
}

// TestCompiledEquivalenceConcurrent hammers one compiled model from
// many goroutines; under -race this asserts the compiled plane's
// fitted state is read-only on the hot path, and every goroutine must
// still see bit-identical results.
func TestCompiledEquivalenceConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	X, y := randomRegression(rng, 150, 4)
	Xq, _ := randomRegression(rng, 40, 4)

	f := &Forest{NTrees: 20, Tree: TreeConfig{Splitter: RandomSplitter}, Seed: 5}
	if err := f.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	want := predictAll(t, f, Xq)

	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := make([]float64, len(Xq))
			for rep := 0; rep < 50; rep++ {
				if err := PredictBatchInto(f, Xq, out, 0); err != nil {
					errc <- err
					return
				}
				for i := range out {
					if !sameBits(out[i], want[i]) {
						t.Errorf("row %d: %x != %x", i, out[i], want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// TestCompiledLoadedEquivalence asserts a save/load round trip decodes
// straight into compiled form with bit-identical predictions.
func TestCompiledLoadedEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	X, y := randomRegression(rng, 120, 3)
	Xq, _ := randomRegression(rng, 30, 3)

	f := &Forest{NTrees: 10, Tree: TreeConfig{Splitter: RandomSplitter}, Seed: 2}
	if err := f.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	loaded := roundTrip(t, f).(*Forest)
	if loaded.compiled == nil {
		t.Fatal("loaded forest not compiled")
	}
	for _, x := range Xq {
		if got, want := loaded.Predict(x), f.Predict(x); !sameBits(got, want) {
			t.Fatalf("loaded forest: %x != %x", got, want)
		}
	}
}

// TestCompiledPredictArityPanics pins the misuse contract the compiled
// plane must preserve from the pointer-tree era: predicting with a
// wrong-arity vector is a programming error and panics with a clear
// message instead of silently indexing a truncated row.
func TestCompiledPredictArityPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	X, y := randomRegression(rng, 80, 4)
	bad := []float64{1, 2, 3} // one feature short

	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: wrong-arity predict did not panic", name)
			}
		}()
		fn()
	}

	f := &Forest{NTrees: 3, Seed: 1}
	if err := f.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	expectPanic("Forest.Predict", func() { f.Predict(bad) })

	p := &Pipeline{Model: NewExtraTrees(3, 1)}
	if err := p.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	expectPanic("Pipeline.Predict", func() { p.Predict(bad) })
}

// TestCompiledValidateRejectsCorruptTables exercises the structural
// validation deserialised node tables pass through: child indices must
// exist and strictly follow their parent (ruling out cycles that would
// hang the iterative walk), and every split must name a feature of the
// tree's arity (one past it would index past the row).
func TestCompiledValidateRejectsCorruptTables(t *testing.T) {
	cases := []struct {
		name  string
		nodes []nodeDTO
	}{
		{"empty", nil},
		{"child out of range", []nodeDTO{{Feature: 0, Left: 1, Right: 5}, {Feature: -1}}},
		{"self cycle", []nodeDTO{{Feature: 0, Left: 0, Right: 1}, {Feature: -1}}},
		{"backward edge", []nodeDTO{{Feature: -1}, {Feature: 0, Left: 0, Right: 2}, {Feature: -1}}},
		{"feature past arity", []nodeDTO{{Feature: 2, Left: 1, Right: 2}, {Feature: -1}, {Feature: -1}}},
	}
	for _, tc := range cases {
		if _, err := compileNodes(tc.nodes, 2); err == nil {
			t.Errorf("%s: corrupt table accepted", tc.name)
		}
	}
	if _, err := compileNodes([]nodeDTO{{Feature: 1, Left: 1, Right: 2}, {Feature: -1}, {Feature: -1}}, 2); err != nil {
		t.Errorf("split on the last feature refused: %v", err)
	}
}

// TestPredictAllocationFree asserts the serve-hot-path contract: after
// fit, single predictions and sequential Into-batch predictions of
// every tree-based estimator (and the compound layers above them)
// perform zero allocations in steady state.
func TestPredictAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	rng := rand.New(rand.NewSource(3))
	X, y := randomRegression(rng, 200, 4)
	Xq, _ := randomRegression(rng, 2*BatchBlock, 4) // two pooled blocks per wrapper
	out := make([]float64, len(Xq))

	fit := func(r Regressor) Regressor {
		t.Helper()
		if err := r.Fit(X, y); err != nil {
			t.Fatal(err)
		}
		return r
	}
	models := []struct {
		name string
		r    Regressor
	}{
		{"tree", fit(NewDecisionTree(TreeConfig{Seed: 1}))},
		{"forest", fit(&Forest{NTrees: 10, Seed: 1, Workers: 1})},
		{"pipeline", fit(&Pipeline{Model: NewExtraTrees(10, 1)})},
	}
	for _, m := range models {
		x := Xq[0]
		if allocs := testing.AllocsPerRun(100, func() { m.r.Predict(x) }); allocs != 0 {
			t.Errorf("%s: Predict allocates %.1f per call, want 0", m.name, allocs)
		}
		if allocs := testing.AllocsPerRun(50, func() {
			if err := PredictBatchInto(m.r, Xq, out, 1); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("%s: PredictBatchInto allocates %.1f per batch, want 0", m.name, allocs)
		}
	}
}

// The pre-single-pass compile, retained as the executable specification
// of the fused table: member trees were appended one by one onto four
// append-grown arrays (refFused.appendTree, right pushed element by
// element with an int32 base) and the packed walk table was a second
// full copy of those (refBuildHotNodes). compileEnsemble must produce
// exactly the records this pair does.

type refFused struct {
	feature   []int32
	threshold []float64
	value     []float64
	right     []int32
	roots     []int32
}

func (e *refFused) appendTree(t *nodeTable) {
	base := int32(len(e.feature))
	e.roots = append(e.roots, base)
	e.feature = append(e.feature, t.feature...)
	e.threshold = append(e.threshold, t.threshold...)
	e.value = append(e.value, t.value...)
	for _, r := range t.right {
		if r >= 0 {
			r += base
		}
		e.right = append(e.right, r)
	}
}

func refBuildHotNodes(e *refFused) []hotNode {
	hot := make([]hotNode, len(e.feature))
	for i, f := range e.feature {
		if f < 0 {
			hot[i] = hotNode{threshold: e.value[i], feature: -1}
		} else {
			hot[i] = hotNode{threshold: e.threshold[i], feature: f, right: e.right[i]}
		}
	}
	return hot
}

// assertFusedEqualsReference compiles trees the reference way and
// compares the ensemble's packed table and roots element for element.
// The trees must not be e's own members, which are views of its table.
func assertFusedEqualsReference(t *testing.T, name string, e *CompiledEnsemble, trees []*DecisionTree) {
	t.Helper()
	var ref refFused
	for _, tr := range trees {
		tab := treeTable(&tr.nodes)
		ref.appendTree(&tab)
	}
	want := refBuildHotNodes(&ref)
	if len(e.hot) != len(want) || len(e.roots) != len(ref.roots) {
		t.Fatalf("%s: fused %d nodes / %d roots, reference %d / %d", name, len(e.hot), len(e.roots), len(want), len(ref.roots))
	}
	for i, r := range ref.roots {
		if e.roots[i] != r {
			t.Fatalf("%s: root %d = %d, reference %d", name, i, e.roots[i], r)
		}
	}
	for i, w := range want {
		g := e.hot[i]
		if g.feature != w.feature || g.right != w.right || !sameBits(g.threshold, w.threshold) {
			t.Fatalf("%s: node %d = %+v, reference %+v", name, i, g, w)
		}
	}
}

// assertWalksFromPacked checks e's single-row walk and every batch walk
// over its packed table against want (the recursive reference), bit
// for bit.
func assertWalksFromPacked(t *testing.T, name string, e *CompiledEnsemble, Xq [][]float64, want []float64) {
	t.Helper()
	out := make([]float64, len(Xq))
	for _, bw := range batchWalks(e) {
		bw.walk(Xq, out)
		for i, x := range Xq {
			single := e.Predict(x)
			if !sameBits(single, out[i]) {
				t.Fatalf("%s %s row %d: single %x != batch %x", name, bw.name, i, single, out[i])
			}
			if !sameBits(single, want[i]) {
				t.Fatalf("%s %s row %d: %x != recursive %x", name, bw.name, i, single, want[i])
			}
		}
	}
}

// TestCompileEnsembleMatchesReference is the differential test of the
// single-pass compile: for forests over random tree configurations and
// datasets, one-tree ensembles and lone-leaf trees,
// fitted with 1 and 4 workers, the packed table equals the old
// append-then-copy pair's over the reference builder's trees
// (tree_ref_test.go) element for element, and every walk over it
// predicts what the recursive walk does.
func TestCompileEnsembleMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(0x14))
	for trial := 0; trial < 12; trial++ {
		n := 30 + rng.Intn(170)
		p := 1 + rng.Intn(6)
		X, y := randomRegression(rng, n, p)
		Xq, _ := randomRegression(rng, 48, p)
		cfg := randomTreeConfig(rng)
		nTrees := 1 + rng.Intn(9)
		switch trial {
		case 0:
			nTrees = 1
		case 1:
			// Constant response: every member is a lone leaf.
			for i := range y {
				y[i] = 3.25
			}
		}

		f := &Forest{NTrees: nTrees, Tree: cfg, Bootstrap: rng.Intn(2) == 0, Seed: rng.Int63()}
		refTrees := refFitForest(f, X, y)
		for _, workers := range []int{1, 4} {
			f.Workers = workers
			if err := f.Fit(X, y); err != nil {
				t.Fatal(err)
			}
			assertFusedEqualsReference(t, "forest", f.compiled, refTrees)
			if trial == 1 && f.compiled.NumNodes() != nTrees {
				t.Fatalf("lone-leaf fixture grew %d nodes for %d trees", f.compiled.NumNodes(), nTrees)
			}
		}

		refs := make([]*refNode, len(refTrees))
		for i, tr := range refTrees {
			refs[i] = refTree(&tr.nodes)
		}
		fwant := make([]float64, len(Xq))
		for i, x := range Xq {
			fwant[i] = refForestPredict(refs, x)
		}
		assertWalksFromPacked(t, "forest", f.compiled, Xq, fwant)

		// The decode path compiles through the same function.
		bin, err := AppendBinary(nil, f)
		if err != nil {
			t.Fatal(err)
		}
		loaded, err := DecodeBinaryVersion(bin, BinaryVersionLatest, nil)
		if err != nil {
			t.Fatal(err)
		}
		assertFusedEqualsReference(t, "forest lamb1", loaded.(*Forest).compiled, refTrees)
	}
}

// TestPackTreeMasksLeaves pins packTree's branch-free leaf/split select
// on encodings a fit never produces: any negative feature is a leaf and
// packs as feature -1, right 0 and the leaf value's exact bits (NaN
// payloads included), whatever sits in the leaf's threshold and right
// slots; a split keeps its threshold bits and gets its right rebased.
func TestPackTreeMasksLeaves(t *testing.T) {
	nan := math.Float64frombits(0x7ff8_0000_dead_beef)
	c := nodeTable{
		feature:   []int32{2, -1, 0, -7, math.MinInt32},
		threshold: []float64{nan, 9, math.Copysign(0, -1), nan, 1},
		value:     []float64{5, 1.5, 6, nan, math.Inf(-1)},
		right:     []int32{2, 99, 4, -3, 0},
	}
	want := []hotNode{
		{threshold: nan, feature: 2, right: 1002},
		{threshold: 1.5, feature: -1},
		{threshold: math.Copysign(0, -1), feature: 0, right: 1004},
		{threshold: nan, feature: -1},
		{threshold: math.Inf(-1), feature: -1},
	}
	got := make([]hotNode, len(want))
	packTree(got, &c, 1000)
	for i, w := range want {
		g := got[i]
		if g.feature != w.feature || g.right != w.right || !sameBits(g.threshold, w.threshold) {
			t.Fatalf("node %d = %+v (%#x), want %+v (%#x)", i, g, math.Float64bits(g.threshold), w, math.Float64bits(w.threshold))
		}
	}
}

// TestFusedRootsRefusesOverflow pins the size check on lengths alone:
// node counts are summed in int, and an ensemble whose fused table
// int32 indices cannot address is refused instead of wrapping.
func TestFusedRootsRefusesOverflow(t *testing.T) {
	lens := []int{1 << 30, 1<<30 - 1, 7}
	roots := make([]int32, len(lens)-1)
	total, err := fusedRoots(roots, func(i int) int { return lens[i] })
	if err != nil || total != math.MaxInt32 || roots[1] != 1<<30 {
		t.Fatalf("a table of exactly MaxInt32 nodes: roots %v total %d err %v", roots, total, err)
	}
	if _, err := fusedRoots(make([]int32, len(lens)), func(i int) int { return lens[i] }); err == nil {
		t.Fatal("a table of MaxInt32+7 nodes was accepted")
	}
}

// TestCompileAllocationsConstant pins the exact-size pass: compiling
// decoded tables allocates the ensemble, its roots and its packed
// table — a count that depends on neither the number of trees nor
// their size.
func TestCompileAllocationsConstant(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	rng := rand.New(rand.NewSource(9))
	var counts []float64
	for _, shape := range []struct{ rows, trees int }{{40, 2}, {400, 16}, {1500, 64}} {
		X, y := randomRegression(rng, shape.rows, 4)
		f := &Forest{NTrees: shape.trees, Tree: TreeConfig{Splitter: RandomSplitter}, Seed: 1}
		if err := f.Fit(X, y); err != nil {
			t.Fatal(err)
		}
		tables := make([]nodeTable, len(f.trees))
		for i, tr := range f.trees {
			tables[i] = treeTable(&tr.nodes)
		}
		counts = append(counts, testing.AllocsPerRun(10, func() {
			if _, err := compileEnsemble(f.trees, tables); err != nil {
				t.Fatal(err)
			}
		}))
	}
	for _, c := range counts {
		if c != counts[0] || c > 3 {
			t.Fatalf("compile allocations per shape = %v, want one small constant", counts)
		}
	}
}

// TestGrowthPack: pack moves each grown tree down against its
// predecessor, rebasing split right children (leaves keep right 0),
// points every tree at its range, and copies a table more than a
// quarter empty to exact size.
func TestGrowthPack(t *testing.T) {
	// Tree-local records as the builder writes them.
	split3 := []hotNode{{threshold: 0.5, feature: 1, right: 2}, {threshold: 1, feature: -1}, {threshold: 2, feature: -1}}
	leaf := []hotNode{{threshold: 3, feature: -1}}
	grown := [][]hotNode{split3, leaf, split3}
	want := []hotNode{split3[0], split3[1], split3[2], leaf[0], {threshold: 0.5, feature: 1, right: 6}, split3[1], split3[2]}
	for _, c := range []struct {
		bounds []int
		copied bool
	}{{[]int{3, 1, 3}, false}, {[]int{4, 2, 3}, false}, {[]int{5, 4, 5}, true}} {
		g, err := newGrowth(c.bounds, nil)
		if err != nil {
			t.Fatal(err)
		}
		for tr, recs := range grown {
			copy(g.slot(tr), recs)
			g.sizes[tr] = int32(len(recs))
		}
		backing := &g.hot[0]
		trees := []*DecisionTree{{}, {}, {}}
		e := g.pack(trees)
		if !slices.Equal(e.hot, want) || !slices.Equal(e.roots, []int32{0, 3, 4}) {
			t.Fatalf("bounds %v: packed %v roots %v, want %v roots [0 3 4]", c.bounds, e.hot, e.roots, want)
		}
		if copied := &e.hot[0] != backing; copied != c.copied {
			t.Errorf("bounds %v: copied to exact size = %v, want %v", c.bounds, copied, c.copied)
		}
		for tr, tree := range trees {
			n := &tree.nodes
			if n.root != e.roots[tr] || n.Len() != len(grown[tr]) || &n.hot[0] != &e.hot[0] || n.keep != nil {
				t.Fatalf("bounds %v: tree %d is root %d of %d nodes (owner %v), want root %d of %d in the packed table and no owner",
					c.bounds, tr, n.root, n.Len(), n.keep, e.roots[tr], len(grown[tr]))
			}
		}
	}
}

// depth returns the tree depth (a lone leaf has depth 1) by one linear
// pass: preorder guarantees parents precede children, so each node's
// depth is known when its children are visited.
func (c *CompiledTree) depth() int {
	n := c.Len()
	if n == 0 {
		return 0
	}
	depths := make([]int32, n)
	depths[0] = 1
	max := int32(1)
	for i := 0; i < n; i++ {
		f, _, r := c.split(i)
		if f < 0 {
			continue
		}
		d := depths[i] + 1
		depths[i+1] = d
		depths[r] = d
		if d > max {
			max = d
		}
	}
	return int(max)
}

// numLeaves counts the leaf nodes.
func (c *CompiledTree) numLeaves() int {
	n := 0
	for i := range c.Len() {
		if f, _, _ := c.split(i); f < 0 {
			n++
		}
	}
	return n
}
