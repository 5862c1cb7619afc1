package ml

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

// parallelTestData builds a deterministic nonlinear regression problem.
func parallelTestData(n int) (X [][]float64, y []float64) {
	rng := rand.New(rand.NewSource(11))
	X = make([][]float64, n)
	y = make([]float64, n)
	for i := range X {
		a, b, c := rng.Float64()*4, rng.Float64()*4, rng.Float64()*4
		X[i] = []float64{a, b, c}
		y[i] = a*b + math.Sin(c) + 0.05*rng.NormFloat64()
	}
	return X, y
}

func identical(t *testing.T, name string, seq, par []float64) {
	t.Helper()
	if len(seq) != len(par) {
		t.Fatalf("%s: length mismatch %d vs %d", name, len(seq), len(par))
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("%s: output %d differs: sequential %v, parallel %v", name, i, seq[i], par[i])
		}
	}
}

// TestForestParallelFitBitIdentical is the core determinism guarantee:
// a forest fitted on one worker and one fitted on many produce
// byte-identical predictions under the same seed.
func TestForestParallelFitBitIdentical(t *testing.T) {
	X, y := parallelTestData(200)
	for _, bootstrap := range []bool{false, true} {
		seq := &Forest{NTrees: 30, Bootstrap: bootstrap, Seed: 5, Workers: 1}
		par := &Forest{NTrees: 30, Bootstrap: bootstrap, Seed: 5, Workers: 8}
		if err := seq.Fit(X, y); err != nil {
			t.Fatal(err)
		}
		if err := par.Fit(X, y); err != nil {
			t.Fatal(err)
		}
		identical(t, "forest predictions",
			predictWorkers(t, seq, X, 1), predictWorkers(t, par, X, 8))
	}
}

func TestBaggingParallelFitBitIdentical(t *testing.T) {
	X, y := parallelTestData(150)
	newBag := func(workers int) *Bagging {
		return &Bagging{
			NewBase: func() Regressor {
				return &DecisionTree{Config: TreeConfig{MaxDepth: 6}}
			},
			N:       20,
			Seed:    9,
			Workers: workers,
		}
	}
	seq, par := newBag(1), newBag(8)
	if err := seq.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if err := par.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	identical(t, "bagging predictions",
		predictWorkers(t, seq, X, 1), predictWorkers(t, par, X, 8))
}

func TestGradientBoostingParallelBitIdentical(t *testing.T) {
	X, y := parallelTestData(150)
	seq := &GradientBoosting{NStages: 25, Subsample: 0.7, Seed: 3, Workers: 1}
	par := &GradientBoosting{NStages: 25, Subsample: 0.7, Seed: 3, Workers: 8}
	if err := seq.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if err := par.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	identical(t, "gbr predictions",
		predictWorkers(t, seq, X, 1), predictWorkers(t, par, X, 8))
}

func TestStackingParallelBitIdentical(t *testing.T) {
	X, y := parallelTestData(120)
	newStack := func(workers int) *Stacking {
		return &Stacking{
			NewBases: []func() Regressor{
				func() Regressor { return &DecisionTree{Config: TreeConfig{MaxDepth: 4}} },
				func() Regressor { return &LinearRegression{} },
			},
			NewMeta:     func() Regressor { return &LinearRegression{} },
			PassThrough: true,
			KFold:       4,
			Seed:        7,
			Workers:     workers,
		}
	}
	seq, par := newStack(1), newStack(8)
	if err := seq.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if err := par.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	identical(t, "stacking predictions",
		predictWorkers(t, seq, X, 1), predictWorkers(t, par, X, 8))
}

func TestCrossValParallelBitIdentical(t *testing.T) {
	X, y := parallelTestData(120)
	newModel := func() Regressor { return &DecisionTree{Config: TreeConfig{MaxDepth: 5}} }
	seq, err := CrossValScoreCtx(context.Background(), newModel, X, y, 5, 13, MAPE, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := CrossValScoreCtx(context.Background(), newModel, X, y, 5, 13, MAPE, 8)
	if err != nil {
		t.Fatal(err)
	}
	identical(t, "cross-validation fold scores", seq, par)
}

func TestGridSearchParallelBitIdentical(t *testing.T) {
	X, y := parallelTestData(100)
	grids := []ParamGrid{
		{Name: "depth", Values: []float64{2, 4, 6}},
		{Name: "leaf", Values: []float64{1, 5}},
	}
	newModel := func(p map[string]float64) Regressor {
		return &DecisionTree{Config: TreeConfig{
			MaxDepth:       int(p["depth"]),
			MinSamplesLeaf: int(p["leaf"]),
		}}
	}
	bestSeq, allSeq, err := GridSearchCtx(context.Background(), grids, newModel, X, y, 3, 17, MAPE, 1)
	if err != nil {
		t.Fatal(err)
	}
	bestPar, allPar, err := GridSearchCtx(context.Background(), grids, newModel, X, y, 3, 17, MAPE, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(allSeq) != len(allPar) {
		t.Fatalf("candidate count differs: %d vs %d", len(allSeq), len(allPar))
	}
	for i := range allSeq {
		if allSeq[i].Score != allPar[i].Score {
			t.Fatalf("candidate %d score differs: %v vs %v", i, allSeq[i].Score, allPar[i].Score)
		}
		for k, v := range allSeq[i].Params {
			if allPar[i].Params[k] != v {
				t.Fatalf("candidate %d enumerated out of order", i)
			}
		}
	}
	if bestSeq.Score != bestPar.Score {
		t.Fatalf("best score differs: %v vs %v", bestSeq.Score, bestPar.Score)
	}
	for k, v := range bestSeq.Params {
		if bestPar.Params[k] != v {
			t.Fatalf("best params differ at %q: %v vs %v", k, v, bestPar.Params[k])
		}
	}
}

// TestParallelDegenerateInputs checks the Workers <= 0 / tiny-dataset
// guard rails: everything degrades to sequential instead of panicking
// or deadlocking.
func TestParallelDegenerateInputs(t *testing.T) {
	X := [][]float64{{1, 2}}
	y := []float64{3}

	for _, workers := range []int{-4, 0, 1, 16} {
		f := &Forest{NTrees: 5, Seed: 1, Workers: workers}
		if err := f.Fit(X, y); err != nil {
			t.Fatalf("forest on single sample (workers=%d): %v", workers, err)
		}
		if got := predictWorkers(t, f, X, workers); len(got) != 1 || got[0] != 3 {
			t.Fatalf("forest predict on single sample (workers=%d): %v", workers, got)
		}

		b := &Bagging{
			NewBase: func() Regressor { return &DecisionTree{} },
			N:       3, Seed: 1, Workers: workers,
		}
		if err := b.Fit(X, y); err != nil {
			t.Fatalf("bagging on single sample (workers=%d): %v", workers, err)
		}

		g := &GradientBoosting{NStages: 3, Workers: workers}
		if err := g.Fit(X, y); err != nil {
			t.Fatalf("gbr on single sample (workers=%d): %v", workers, err)
		}
	}

	if got := predictWorkers(t, &constModel{v: 2}, nil, -1); len(got) != 0 {
		t.Fatalf("batch predict on empty input: %v", got)
	}
}

type constModel struct{ v float64 }

func (c *constModel) Fit([][]float64, []float64) error { return nil }
func (c *constModel) Predict([]float64) float64        { return c.v }
