package ml

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// synthetic builds n samples of a noiseless piecewise function of two
// features that a tree can represent exactly.
func synthetic(n int, seed int64) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		a := rng.Float64() * 10
		b := rng.Float64() * 10
		X[i] = []float64{a, b}
		switch {
		case a < 5 && b < 5:
			y[i] = 1
		case a < 5:
			y[i] = 2
		case b < 5:
			y[i] = 3
		default:
			y[i] = 4
		}
	}
	return X, y
}

func TestTreeFitsPiecewiseExactly(t *testing.T) {
	X, y := synthetic(400, 1)
	tree := NewDecisionTree(TreeConfig{})
	if err := tree.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	for i, x := range X {
		if got := tree.Predict(x); got != y[i] {
			t.Fatalf("training sample %d: predict %v, want %v", i, got, y[i])
		}
	}
	// A fresh grid point inside each region must also be exact.
	probes := []struct {
		x    []float64
		want float64
	}{
		{[]float64{1, 1}, 1}, {[]float64{1, 9}, 2}, {[]float64{9, 1}, 3}, {[]float64{9, 9}, 4},
	}
	for _, p := range probes {
		if got := tree.Predict(p.x); got != p.want {
			t.Errorf("probe %v: predict %v, want %v", p.x, got, p.want)
		}
	}
}

func TestTreeConstantResponseIsSingleLeaf(t *testing.T) {
	X := [][]float64{{1}, {2}, {3}, {4}}
	y := []float64{7, 7, 7, 7}
	tree := NewDecisionTree(TreeConfig{})
	if err := tree.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if tree.nodes.numLeaves() != 1 {
		t.Errorf("constant response grew %d leaves, want 1", tree.nodes.numLeaves())
	}
	if got := tree.Predict([]float64{99}); got != 7 {
		t.Errorf("predict = %v, want 7", got)
	}
}

func TestTreeMaxDepth(t *testing.T) {
	X, y := synthetic(400, 2)
	tree := NewDecisionTree(TreeConfig{MaxDepth: 2})
	if err := tree.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if d := tree.nodes.depth(); d > 2 {
		t.Errorf("depth = %d, want <= 2", d)
	}
	if l := tree.nodes.numLeaves(); l > 2 {
		t.Errorf("leaves = %d, want <= 2 at depth 2", l)
	}
}

func TestTreeMinSamplesLeaf(t *testing.T) {
	X, y := synthetic(100, 3)
	tree := NewDecisionTree(TreeConfig{MinSamplesLeaf: 10})
	if err := tree.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	assertLeafSizes(t, &tree.nodes, X, 10)
}

// assertLeafSizes routes every training row of X down c and requires
// each leaf to receive at least min of them.
func assertLeafSizes(t *testing.T, c *CompiledTree, X [][]float64, min int) {
	t.Helper()
	held := make([]int, len(c.hot))
	for _, x := range X {
		i := c.root
		for c.hot[i].feature >= 0 {
			i = hotStep(i, c.hot[i], x)
		}
		held[i]++
	}
	for i := int(c.root); i < len(c.hot); i++ {
		if c.hot[i].feature < 0 && held[i] < min {
			t.Errorf("leaf %d holds %d samples, want >= %d", i, held[i], min)
		}
	}
}

func TestTreeMinSamplesSplit(t *testing.T) {
	X, y := synthetic(50, 4)
	tree := NewDecisionTree(TreeConfig{MinSamplesSplit: 1000})
	if err := tree.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if tree.nodes.numLeaves() != 1 {
		t.Errorf("MinSamplesSplit > n should give a stump, got %d leaves", tree.nodes.numLeaves())
	}
}

func TestTreeDeterminism(t *testing.T) {
	X, y := synthetic(300, 5)
	for _, splitter := range []Splitter{BestSplitter, RandomSplitter} {
		a := NewDecisionTree(TreeConfig{Splitter: splitter, Seed: 42})
		b := NewDecisionTree(TreeConfig{Splitter: splitter, Seed: 42})
		if err := a.Fit(X, y); err != nil {
			t.Fatal(err)
		}
		if err := b.Fit(X, y); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 50; i++ {
			x := []float64{float64(i) / 5, float64(50-i) / 5}
			if a.Predict(x) != b.Predict(x) {
				t.Fatalf("splitter %v: trees with equal seeds disagree at %v", splitter, x)
			}
		}
	}
}

func TestTreePredictionWithinTrainingRange(t *testing.T) {
	// Property: any tree prediction is a mean of training responses, so
	// it must lie within [min(y), max(y)].
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(100)
		X := make([][]float64, n)
		y := make([]float64, n)
		for i := range X {
			X[i] = []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
			y[i] = rng.NormFloat64() * 100
		}
		lo, hi := y[0], y[0]
		for _, v := range y {
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		for _, splitter := range []Splitter{BestSplitter, RandomSplitter} {
			tree := NewDecisionTree(TreeConfig{Splitter: splitter, Seed: seed})
			if err := tree.Fit(X, y); err != nil {
				return false
			}
			for i := 0; i < 20; i++ {
				x := []float64{rng.NormFloat64() * 3, rng.NormFloat64() * 3, rng.NormFloat64() * 3}
				p := tree.Predict(x)
				if p < lo-1e-9 || p > hi+1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestTreeFullyGrownInterpolatesTraining(t *testing.T) {
	// Property: with MinSamplesLeaf=1 and unlimited depth, distinct
	// feature vectors are predicted exactly.
	rng := rand.New(rand.NewSource(9))
	n := 200
	X := make([][]float64, n)
	y := make([]float64, n)
	seen := map[float64]bool{}
	for i := range X {
		v := rng.Float64()
		for seen[v] {
			v = rng.Float64()
		}
		seen[v] = true
		X[i] = []float64{v}
		y[i] = v*v + 3
	}
	tree := NewDecisionTree(TreeConfig{})
	if err := tree.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	for i := range X {
		if got := tree.Predict(X[i]); math.Abs(got-y[i]) > 1e-12 {
			t.Fatalf("sample %d: predict %v, want %v", i, got, y[i])
		}
	}
}

func TestTreeErrors(t *testing.T) {
	tree := NewDecisionTree(TreeConfig{})
	if err := tree.Fit(nil, nil); err == nil {
		t.Error("expected error on empty training set")
	}
	if err := tree.Fit([][]float64{{1}}, []float64{1, 2}); err == nil {
		t.Error("expected error on length mismatch")
	}
	if err := tree.Fit([][]float64{{1}, {1, 2}}, []float64{1, 2}); err == nil {
		t.Error("expected error on ragged matrix")
	}
	if err := tree.Fit([][]float64{{}, {}}, []float64{1, 2}); err == nil {
		t.Error("expected error on zero features")
	}
}

func TestTreePredictBeforeFitPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewDecisionTree(TreeConfig{}).Predict([]float64{1})
}

func TestTreePredictArityPanics(t *testing.T) {
	X, y := synthetic(50, 6)
	tree := NewDecisionTree(TreeConfig{})
	if err := tree.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic on wrong arity")
		}
	}()
	tree.Predict([]float64{1})
}

func TestTreeFeatureImportances(t *testing.T) {
	// Response depends only on feature 0; importance must concentrate there.
	rng := rand.New(rand.NewSource(7))
	n := 500
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		X[i] = []float64{rng.Float64(), rng.Float64()}
		if X[i][0] > 0.5 {
			y[i] = 10
		} else {
			y[i] = 0
		}
	}
	tree := NewDecisionTree(TreeConfig{})
	if err := tree.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	imp := tree.importances
	if len(imp) != 2 {
		t.Fatalf("importances len = %d, want 2", len(imp))
	}
	if imp[0] < 0.9 {
		t.Errorf("feature 0 importance = %v, want > 0.9 (got %v)", imp[0], imp)
	}
	sum := imp[0] + imp[1]
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("importances sum to %v, want 1", sum)
	}
}

func TestTreeDuplicateFeatureValues(t *testing.T) {
	// Equal feature values with different responses must not split
	// between them; the tree must still terminate and average.
	X := [][]float64{{1}, {1}, {1}, {2}, {2}}
	y := []float64{1, 2, 3, 10, 20}
	tree := NewDecisionTree(TreeConfig{})
	if err := tree.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if got := tree.Predict([]float64{1}); got != 2 {
		t.Errorf("predict(1) = %v, want 2 (mean of duplicates)", got)
	}
	if got := tree.Predict([]float64{2}); got != 15 {
		t.Errorf("predict(2) = %v, want 15", got)
	}
}

func TestRandomSplitterReducesErrorVsStump(t *testing.T) {
	X, y := synthetic(400, 8)
	full := NewDecisionTree(TreeConfig{Splitter: RandomSplitter, Seed: 1})
	if err := full.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	stump := NewDecisionTree(TreeConfig{Splitter: RandomSplitter, Seed: 1, MaxDepth: 1})
	if err := stump.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	fullErr := RMSE(y, predictAll(t, full, X))
	stumpErr := RMSE(y, predictAll(t, stump, X))
	if fullErr >= stumpErr {
		t.Errorf("full tree RMSE %v should beat stump %v", fullErr, stumpErr)
	}
}

func TestTreeMaxFeatures(t *testing.T) {
	X, y := synthetic(200, 11)
	tree := NewDecisionTree(TreeConfig{MaxFeatures: 1, Seed: 3})
	if err := tree.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	// Sanity only: the tree must fit and keep predictions in range.
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range y {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	p := tree.Predict([]float64{5, 5})
	if p < lo || p > hi {
		t.Errorf("prediction %v outside [%v, %v]", p, lo, hi)
	}
}
