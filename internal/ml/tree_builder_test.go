package ml

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// tiedData builds a regression set that provokes every order-sensitive
// step of the builder: features quantised to a few levels (ties in the
// sort and on both sides of a threshold), one constant feature, and a
// share of exact duplicate rows, some with different responses.
func tiedData(rng *rand.Rand, n, p int) ([][]float64, []float64) {
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		if i > 0 && rng.Intn(5) == 0 {
			j := rng.Intn(i)
			X[i] = append([]float64(nil), X[j]...)
			y[i] = y[j]
			if rng.Intn(2) == 0 {
				y[i] += rng.NormFloat64()
			}
			continue
		}
		x := make([]float64, p)
		for f := range x {
			switch f % 3 {
			case 0:
				x[f] = float64(rng.Intn(4))
			case 1:
				x[f] = rng.NormFloat64()
			default:
				x[f] = math.Round(rng.Float64()*8) / 8
			}
		}
		if p > 3 {
			x[3] = 2.5 // constant feature
		}
		X[i] = x
		y[i] = 3*x[0] - x[p/2]*x[p/2] + rng.NormFloat64()*0.3
		// Signed zeros and exactly cancelling responses: the sums must
		// fold them the way the reference's branches do.
		switch rng.Intn(12) {
		case 0:
			y[i] = math.Copysign(0, -1)
		case 1:
			y[i] = float64(rng.Intn(3) - 1)
		}
	}
	return X, y
}

// assertSameTree compares two fitted trees node for node and importance
// for importance, floats by bit pattern.
func assertSameTree(t *testing.T, what string, got, want *DecisionTree) {
	t.Helper()
	g, w := treeTable(&got.nodes), treeTable(&want.nodes)
	n := len(w.feature)
	if len(g.feature) != n {
		t.Fatalf("%s: %d nodes, reference has %d", what, len(g.feature), n)
	}
	if len(g.threshold) != n || len(g.value) != n || len(g.right) != n {
		t.Fatalf("%s: ragged node arrays", what)
	}
	for i := 0; i < n; i++ {
		if g.feature[i] != w.feature[i] || g.right[i] != w.right[i] ||
			math.Float64bits(g.threshold[i]) != math.Float64bits(w.threshold[i]) ||
			math.Float64bits(g.value[i]) != math.Float64bits(w.value[i]) {
			t.Fatalf("%s: node %d = (f %d, thr %v, val %v, right %d), reference (f %d, thr %v, val %v, right %d)",
				what, i, g.feature[i], g.threshold[i], g.value[i], g.right[i],
				w.feature[i], w.threshold[i], w.value[i], w.right[i])
		}
	}
	if got.nFeatures != want.nFeatures || len(got.importances) != len(want.importances) {
		t.Fatalf("%s: arity %d/%d importances, reference %d/%d", what, got.nFeatures, len(got.importances), want.nFeatures, len(want.importances))
	}
	for f := range want.importances {
		if math.Float64bits(got.importances[f]) != math.Float64bits(want.importances[f]) {
			t.Fatalf("%s: importance[%d] = %v, reference %v", what, f, got.importances[f], want.importances[f])
		}
	}
}

func assertSameTrees(t *testing.T, what string, got, want []*DecisionTree) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d trees, reference has %d", what, len(got), len(want))
	}
	for i := range want {
		assertSameTree(t, fmt.Sprintf("%s tree %d", what, i), got[i], want[i])
	}
}

// TestTreeBuilderMatchesReference is the differential test between the
// pooled builder and the allocating reference builder in
// tree_ref_test.go: every tree, alone or as an ensemble member, must
// come out node for node and bit for bit the same, and the artifacts
// written from it byte for byte the same.
func TestTreeBuilderMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(0x7ee5))
	rechecks := 0
	for trial := 0; trial < 60; trial++ {
		n, p := 1+rng.Intn(160), 1+rng.Intn(6)
		X, y := tiedData(rng, n, p)
		what := fmt.Sprintf("trial %d (n=%d p=%d)", trial, n, p)
		if trial%10 == 9 {
			// Responses no sum survives unscathed: the builders must
			// still agree on every bit of what comes out.
			hostile := []float64{math.Copysign(0, -1), 0, 1, -1, 1e308, -1e308, math.Inf(1), math.NaN()}
			for i := range y {
				y[i] = hostile[rng.Intn(len(hostile)-4*(trial/10%2))]
			}
		}

		cfg := randomTreeConfig(rng)
		tree := NewDecisionTree(cfg)
		if err := tree.Fit(X, y); err != nil {
			t.Fatal(err)
		}
		ref, r := refFitTreeCounting(cfg, X, y)
		rechecks += r
		assertSameTree(t, fmt.Sprintf("%s tree %+v", what, cfg), tree, ref)

		forest := &Forest{NTrees: 1 + rng.Intn(5), Tree: randomTreeConfig(rng), Bootstrap: trial%2 == 0, Seed: rng.Int63(), Workers: 1 + trial%3}
		if err := forest.Fit(X, y); err != nil {
			t.Fatal(err)
		}
		refTrees := refFitForest(forest, X, y)
		assertSameTrees(t, fmt.Sprintf("%s forest %+v bootstrap=%v", what, forest.Tree, forest.Bootstrap), forest.trees, refTrees)
		twin := &Forest{NTrees: forest.NTrees, Tree: forest.Tree, Bootstrap: forest.Bootstrap, Seed: forest.Seed, trees: refTrees, nFeatures: p}
		tables := make([]nodeTable, len(refTrees))
		for i, tr := range refTrees {
			tables[i] = treeTable(&tr.nodes)
		}
		var err error
		if twin.compiled, err = compileEnsemble(refTrees, tables); err != nil {
			t.Fatal(err)
		}
		assertSameArtifacts(t, what+" forest", forest, twin)

	}
	// The generated cases hold no NaN, and on them both splitters enforce
	// MinSamplesLeaf themselves: the builder's post-partition re-check is
	// there for NaN features only (TestTreeNaNFeature).
	if rechecks != 0 {
		t.Errorf("the post-partition MinSamplesLeaf re-check fired %d times on NaN-free data", rechecks)
	}
}

// assertSameArtifacts encodes a model fitted by the pooled builder and
// its twin assembled from reference-built trees with AppendBinary, the
// one artifact writer, and compares the bytes.
func assertSameArtifacts(t *testing.T, what string, got, want Regressor) {
	t.Helper()
	gb, err := AppendBinary(nil, got)
	if err != nil {
		t.Fatal(err)
	}
	wb, err := AppendBinary(nil, want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gb, wb) {
		t.Fatalf("%s: binary encodings differ (%d vs %d bytes)", what, len(gb), len(wb))
	}
}

// TestTreeNaNFeature pins the one case where the builder's
// post-partition MinSamplesLeaf re-check is live: bestSplit counts a
// side by sorted position and can propose a NaN threshold, which the
// partition's `<=` sends wholly right. The fit must terminate and match
// the reference, whose re-check is seen firing.
func TestTreeNaNFeature(t *testing.T) {
	nan := math.NaN()
	X := [][]float64{{nan, 1}, {1, 2}, {2, nan}, {nan, 4}, {3, 5}, {4, nan}, {5, 7}, {nan, 8}}
	y := []float64{1, 5, 2, 8, 3, 9, 4, 7}
	fired := 0
	for _, splitter := range []Splitter{BestSplitter, RandomSplitter} {
		for seed := int64(0); seed < 8; seed++ {
			cfg := TreeConfig{Splitter: splitter, Seed: seed}
			tree := NewDecisionTree(cfg)
			if err := tree.Fit(X, y); err != nil {
				t.Fatal(err)
			}
			ref, r := refFitTreeCounting(cfg, X, y)
			fired += r
			assertSameTree(t, fmt.Sprintf("%v seed %d", splitter, seed), tree, ref)
		}
	}
	if fired == 0 {
		t.Error("no NaN case reached the post-partition MinSamplesLeaf re-check; the test no longer covers it")
	}
}

// TestTreeBuilderReleasesTrainingSet: the pooled builder must not pin a
// caller's training data between fits.
func TestTreeBuilderReleasesTrainingSet(t *testing.T) {
	collected := make(chan string, 2)
	func() {
		n := 100_000
		X := make([][]float64, n)
		y := make([]float64, n)
		for i := range X {
			X[i] = []float64{float64(i % 97), float64(i % 13)}
			y[i] = float64(i % 7)
		}
		runtime.SetFinalizer(&X[0], func(*[]float64) { collected <- "X" })
		runtime.SetFinalizer(&y[0], func(*float64) { collected <- "y" })
		et := &Forest{NTrees: 2, Tree: TreeConfig{Splitter: RandomSplitter, MaxDepth: 6}, Workers: 1}
		if err := et.Fit(X, y); err != nil {
			t.Fatal(err)
		}
		if err := NewDecisionTree(TreeConfig{MaxDepth: 4}).Fit(X, y); err != nil {
			t.Fatal(err)
		}
	}()
	// White box: whichever builder the pool hands back holds no view,
	// response or importances of the fit it last served.
	var kept *lease
	b := kept.builder()
	if b.cols != nil || b.y != nil || b.importances != nil {
		t.Errorf("released builder still references its last fit: cols %v, y %v, importances %v", b.cols != nil, b.y != nil, b.importances != nil)
	}
	kept.putBuilder(b)

	smallX, smallY := synthetic(10, 1)
	if err := NewDecisionTree(TreeConfig{}).Fit(smallX, smallY); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.GC()
	for seen := 0; seen < 2; {
		select {
		case <-collected:
			seen++
		case <-time.After(5 * time.Second):
			t.Fatalf("the 10^5-row training set is still reachable after a small fit and two GCs (%d of 2 finalizers ran)", seen)
		}
	}
}

// TestFailedRefitLeavesTreeUntouched: Fit's comment promises a failed
// refit keeps the fitted state.
func TestFailedRefitLeavesTreeUntouched(t *testing.T) {
	X, y := synthetic(80, 3)
	tree := NewDecisionTree(TreeConfig{Seed: 1})
	if err := tree.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	before := *tree
	if err := tree.Fit([][]float64{{1, 2}, {3}}, []float64{1, 2}); err == nil {
		t.Fatal("ragged refit succeeded")
	}
	if err := tree.Fit(X, y[:10]); err == nil {
		t.Fatal("mismatched refit succeeded")
	}
	assertSameTree(t, "after failed refits", tree, &before)
	if &tree.nodes.hot[0] != &before.nodes.hot[0] {
		t.Error("failed refit replaced the node table")
	}
	// And a good refit after the failures still works.
	if err := tree.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	assertSameTree(t, "refit after failures", tree, &before)
}

// fitAllocs measures a fit twice: warm, right after a fit returned
// its builders to the pool, and cold, after two collections have
// emptied the pool. It returns the bytes and mallocs of each and the
// node count fit reports. The collector stays on throughout: a fit's
// node tables are sized by the data, so a collection can only change
// the per-row working memory of the builders a fit draws.
func fitAllocs(fit func() int) (warm, cold [2]uint64, nodes int) {
	measure := func() (out [2]uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		nodes = fit()
		runtime.ReadMemStats(&after)
		return [2]uint64{after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs}
	}
	fit()
	warm = measure()
	runtime.GC()
	runtime.GC()
	return warm, measure(), nodes
}

// fitBudget is what a fit over an n×p training set may allocate for a
// model of the given node count: the 16 B/node it keeps (the packed
// record) plus 10 %, the column view (8 B per training value), and per
// builder a 4.9 kB random source plus 32 B per row of working memory,
// plus 16 KB for the rest (member headers, importances, roots).
func fitBudget(nodes, n, p, builders int) uint64 {
	return uint64(1.1*16*float64(nodes)) + uint64(8*n*p) + uint64(builders*(5<<10+32*n)) + 16<<10
}

// checkFitAllocs holds both measurements of fitAllocs to fitBudget and
// to maxMallocs.
func checkFitAllocs(t *testing.T, name string, fit func() int, n, p, builders, minNodes int, maxMallocs uint64) {
	t.Helper()
	warm, cold, nodes := fitAllocs(fit)
	budget := fitBudget(nodes, n, p, builders)
	t.Logf("%s: %d nodes, budget %d: warm %d bytes (%.1f B/node) in %d mallocs, cold %d bytes in %d mallocs",
		name, nodes, budget, warm[0], float64(warm[0])/float64(nodes), warm[1], cold[0], cold[1])
	if nodes < minNodes {
		t.Fatalf("%s: only %d nodes: too few to tell per-node from constant mallocs", name, nodes)
	}
	for _, m := range []struct {
		pool  string
		stats [2]uint64
	}{{"warm", warm}, {"cold", cold}} {
		if m.stats[0] > budget {
			t.Errorf("%s: %s fit allocated %d bytes for %d nodes, budget %d", name, m.pool, m.stats[0], nodes, budget)
		}
		if m.stats[1] > maxMallocs {
			t.Errorf("%s: %s fit made %d mallocs for %d nodes, want <= %d", name, m.pool, m.stats[1], nodes, maxMallocs)
		}
	}
}

// TestForestFitAllocBudget: an extra-trees fit and a bootstrap random
// forest fit allocate the node data their model keeps, once, in a
// number of mallocs that depends on neither the node count nor the tree
// count — the trees grow straight into the packed table, and the
// members are one allocation each. A tree's slot is sized by the
// distinct rows it drew, so a random forest, and a forest over rows
// that each appear three times with their own responses, keep the same
// 16 B/node.
func TestForestFitAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	X, y := friedman1(1500, 0.5, 7)
	X3, y3 := friedman1(1500, 0.5, 8)
	for i := range X3 {
		X3[i] = X[i/3]
	}
	const nTrees = 100
	for _, c := range []struct {
		name string
		f    *Forest
		X    [][]float64
		y    []float64
	}{
		{"extra trees", NewExtraTrees(nTrees, 11), X, y},
		{"random forest", NewRandomForest(nTrees, 12), X, y},
		{"extra trees, rows thrice", NewExtraTrees(nTrees, 13), X3, y3},
	} {
		c.f.Workers = 1
		checkFitAllocs(t, c.name, func() int {
			if err := c.f.Fit(c.X, c.y); err != nil {
				t.Fatal(err)
			}
			return c.f.compiled.NumNodes()
		}, len(c.X), len(c.X[0]), 1, 30*nTrees, 48)
	}
}

// TestRowClasses: rows share a class exactly when their features are
// bitwise equal — NaNs of one payload alike, zeros of opposite sign
// apart.
func TestRowClasses(t *testing.T) {
	nan := math.NaN()
	X := [][]float64{{1, 2}, {nan, 0}, {1, 2}, {nan, math.Copysign(0, -1)}, {nan, 0}, {2, 1}, {1, 2}}
	class := make([]int, len(X))
	distinct := rowClasses(columnView(X), class, make([]int, len(X)))
	want := [][]int{{0, 2, 6}, {1, 4}, {3}, {5}}
	if distinct != len(want) {
		t.Fatalf("%d classes, want %d: %v", distinct, len(want), class)
	}
	for _, rows := range want {
		for _, r := range rows {
			if class[r] != class[rows[0]] {
				t.Errorf("rows %d and %d are equal but in classes %d and %d", rows[0], r, class[rows[0]], class[r])
			}
		}
	}
	for a := range want {
		for b := range a {
			if class[want[a][0]] == class[want[b][0]] {
				t.Errorf("rows %d and %d differ but share class %d", want[a][0], want[b][0], class[want[a][0]])
			}
		}
	}
}

// TestTreeFitAllocBudget is TestForestFitAllocBudget for a standalone
// tree, which grows straight into a one-tree walk table.
func TestTreeFitAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	X, y := friedman1(4000, 0.5, 3)
	checkFitAllocs(t, "tree", func() int {
		tree := NewDecisionTree(TreeConfig{Splitter: RandomSplitter, Seed: 5})
		if err := tree.Fit(X, y); err != nil {
			t.Fatal(err)
		}
		return tree.nodes.Len()
	}, len(X), len(X[0]), 1, 4000, 24)
}
