package ml

import (
	"math"
	"math/rand"
	"testing"
)

// friedman1 is the classic Friedman #1 regression benchmark surface
// (5 informative features), a standard sanity check for forests.
func friedman1(n int, noise float64, seed int64) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		x := make([]float64, 5)
		for j := range x {
			x[j] = rng.Float64()
		}
		X[i] = x
		y[i] = 10*math.Sin(math.Pi*x[0]*x[1]) + 20*(x[2]-0.5)*(x[2]-0.5) +
			10*x[3] + 5*x[4] + noise*rng.NormFloat64()
	}
	return X, y
}

func TestForestBeatsSingleTreeOnNoisyData(t *testing.T) {
	trainX, trainY := friedman1(400, 1.0, 1)
	testX, testY := friedman1(400, 0, 2)

	tree := NewDecisionTree(TreeConfig{Seed: 1})
	if err := tree.Fit(trainX, trainY); err != nil {
		t.Fatal(err)
	}
	forest := NewRandomForest(100, 1)
	if err := forest.Fit(trainX, trainY); err != nil {
		t.Fatal(err)
	}
	treeErr := RMSE(testY, predictAll(t, tree, testX))
	forestErr := RMSE(testY, predictAll(t, forest, testX))
	if forestErr >= treeErr {
		t.Errorf("forest RMSE %v should beat single tree %v", forestErr, treeErr)
	}
}

func TestExtraTreesFitsReasonably(t *testing.T) {
	trainX, trainY := friedman1(600, 0.5, 3)
	testX, testY := friedman1(300, 0, 4)
	et := NewExtraTrees(100, 7)
	if err := et.Fit(trainX, trainY); err != nil {
		t.Fatal(err)
	}
	if r2 := R2(testY, predictAll(t, et, testX)); r2 < 0.85 {
		t.Errorf("extra trees R2 = %v, want >= 0.85", r2)
	}
}

func TestForestDeterministicAcrossRuns(t *testing.T) {
	X, y := friedman1(200, 0.5, 5)
	probes, _ := friedman1(20, 0, 6)
	for _, make2 := range []func() *Forest{
		func() *Forest { return NewRandomForest(30, 99) },
		func() *Forest { return NewExtraTrees(30, 99) },
	} {
		a, b := make2(), make2()
		// Different worker counts must not change the fitted ensemble.
		a.Workers = 1
		b.Workers = 8
		if err := a.Fit(X, y); err != nil {
			t.Fatal(err)
		}
		if err := b.Fit(X, y); err != nil {
			t.Fatal(err)
		}
		for _, x := range probes {
			if pa, pb := a.Predict(x), b.Predict(x); pa != pb {
				t.Fatalf("same-seed forests disagree: %v vs %v", pa, pb)
			}
		}
	}
}

func TestForestSeedChangesModel(t *testing.T) {
	X, y := friedman1(200, 1.0, 7)
	a := NewExtraTrees(10, 1)
	b := NewExtraTrees(10, 2)
	if err := a.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if err := b.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	probes, _ := friedman1(50, 0, 8)
	same := true
	for _, x := range probes {
		if a.Predict(x) != b.Predict(x) {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical ensembles")
	}
}

func TestForestDefaultSize(t *testing.T) {
	X, y := friedman1(50, 0, 9)
	f := &Forest{Tree: TreeConfig{}, Seed: 1}
	if err := f.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if len(f.trees) != 100 {
		t.Errorf("default ensemble size = %d, want 100", len(f.trees))
	}
}

func TestForestPredictBeforeFitPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewRandomForest(10, 1).Predict([]float64{1})
}

func TestForestErrorsPropagate(t *testing.T) {
	f := NewRandomForest(4, 1)
	if err := f.Fit(nil, nil); err == nil {
		t.Error("expected error on empty training set")
	}
}

func TestForestImportancesConcentrate(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	n := 400
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		X[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		y[i] = 100 * X[i][1] // only feature 1 matters
	}
	f := NewExtraTrees(30, 3)
	if err := f.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	imp := make([]float64, 3)
	for _, tree := range f.trees {
		for i, v := range tree.importances {
			imp[i] += v / float64(len(f.trees))
		}
	}
	if imp[1] < 0.8 {
		t.Errorf("feature 1 importance = %v, want > 0.8 (%v)", imp[1], imp)
	}
}

func TestForestPredictionWithinRange(t *testing.T) {
	X, y := friedman1(200, 2.0, 11)
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range y {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	for _, f := range []*Forest{NewRandomForest(20, 1), NewExtraTrees(20, 1)} {
		if err := f.Fit(X, y); err != nil {
			t.Fatal(err)
		}
		probes, _ := friedman1(50, 0, 12)
		for _, x := range probes {
			p := f.Predict(x)
			if p < lo-1e-9 || p > hi+1e-9 {
				t.Errorf("prediction %v outside training range [%v, %v]", p, lo, hi)
			}
		}
	}
}
