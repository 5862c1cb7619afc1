package ml

import (
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

		rf := &Forest{NTrees: 3, Bootstrap: true, Seed: 1, Workers: workers}
		if err := rf.Fit(X, y); err != nil {
			t.Fatalf("bootstrap forest on single sample (workers=%d): %v", workers, err)
		}
	}

	if got := predictWorkers(t, &constModel{v: 2}, nil, -1); len(got) != 0 {
		t.Fatalf("batch predict on empty input: %v", got)
	}
}

type constModel struct{ v float64 }

func (c *constModel) Fit([][]float64, []float64) error { return nil }
func (c *constModel) Predict([]float64) float64        { return c.v }
