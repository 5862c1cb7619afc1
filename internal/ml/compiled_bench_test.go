package ml

import (
	"math/rand"
	"os"
	"testing"
)

// Before/after pairs for the compiled inference plane: the "recursive"
// variants rebuild the pre-refactor pointer-tree representation (see
// refNode in compiled_test.go) and walk it the way the estimators used
// to; the "compiled" variants run the packed walk table the
// estimators now use. Run with:
//
//	go test ./internal/ml -bench 'PredictBatch|PredictSingle' -benchmem
func benchSetup(b *testing.B, n int) ([][]float64, []float64, [][]float64) {
	b.Helper()
	rng := rand.New(rand.NewSource(42))
	X, y := randomRegression(rng, n, 6)
	Xq, _ := randomRegression(rng, 512, 6)
	return X, y, Xq
}

// BenchmarkForestPredictBatch scores 512 rows with a 100-tree extra
// trees ensemble, sequentially (workers 1), so the pair isolates
// traversal cost from pool parallelism.
func BenchmarkForestPredictBatch(b *testing.B) {
	X, y, Xq := benchSetup(b, 400)
	f := &Forest{NTrees: 100, Tree: TreeConfig{Splitter: RandomSplitter}, Seed: 7, Workers: 1}
	if err := f.Fit(X, y); err != nil {
		b.Fatal(err)
	}
	refs := make([]*refNode, len(f.trees))
	for i, t := range f.trees {
		refs[i] = refTree(&t.nodes)
	}
	out := make([]float64, len(Xq))

	b.Run("recursive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for r, x := range Xq {
				out[r] = refForestPredict(refs, x)
			}
		}
	})
	b.Run("compiled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := PredictBatchInto(f, Xq, out, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTreePredictSingle pairs one deep tree's single-vector
// latency: pointer chase vs index walk.
func BenchmarkTreePredictSingle(b *testing.B) {
	X, y, Xq := benchSetup(b, 4000)
	tr := NewDecisionTree(TreeConfig{Seed: 3})
	if err := tr.Fit(X, y); err != nil {
		b.Fatal(err)
	}
	ref := refTree(&tr.nodes)
	x := Xq[0]

	b.Run("recursive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = ref.predict(x)
		}
	})
	b.Run("compiled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = tr.Predict(x)
		}
	})
}

// benchForest fits the traversal benchmarks' shared 100-tree ensemble.
func benchForest(b *testing.B) (*Forest, [][]float64) {
	b.Helper()
	X, y, Xq := benchSetup(b, 4000)
	f := &Forest{NTrees: 100, Tree: TreeConfig{Splitter: RandomSplitter}, Seed: 7, Workers: 1}
	if err := f.Fit(X, y); err != nil {
		b.Fatal(err)
	}
	return f, Xq
}

// BenchmarkForestPredictSingleLayout is single-row latency of the
// packed implicit-left walk on a 100-tree ensemble. The sub-benchmark
// name is the trajectory key EXPERIMENTS.md tracks since PR 8; the
// layouts it once raced against are in that file's decision table.
func BenchmarkForestPredictSingleLayout(b *testing.B) {
	f, Xq := benchForest(b)
	b.Run("implicit-left", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = f.Predict(Xq[i%len(Xq)])
		}
	})
}

// BenchmarkForestPredictBatchLayout is 512-row batch scoring over the
// same table (sequential, workers 1, tree-major engaged — the 100-tree
// table is far past the threshold).
func BenchmarkForestPredictBatchLayout(b *testing.B) {
	f, Xq := benchForest(b)
	out := make([]float64, len(Xq))
	b.Run("implicit-left", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := PredictBatchInto(f, Xq, out, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestTraversalBenchGuard is the CI bench-regression smoke gate
// (satellite of the PR 8 raw-speed push): with LAM_BENCH_GUARD=1 it
// times the fused four-tree walk over the packed table against the
// un-fused baseline — each member tree walked on its own, one after
// another (DecisionTree.Predict), averaged — and fails when the fused walk is
// more than 1.3x slower: a generous guard that only trips on a real
// regression (the whole point of fusing is to be faster), not on
// scheduler noise.
func TestTraversalBenchGuard(t *testing.T) {
	if os.Getenv("LAM_BENCH_GUARD") != "1" {
		t.Skip("set LAM_BENCH_GUARD=1 to run the traversal regression guard")
	}
	rng := rand.New(rand.NewSource(42))
	X, y := randomRegression(rng, 4000, 6)
	Xq, _ := randomRegression(rng, 512, 6)
	f := &Forest{NTrees: 100, Tree: TreeConfig{Splitter: RandomSplitter}, Seed: 7, Workers: 1}
	if err := f.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	perTree := func(x []float64) float64 {
		s := 0.0
		for _, tr := range f.trees {
			s += tr.Predict(x)
		}
		return s / float64(len(f.trees))
	}
	for _, x := range Xq {
		if got, want := f.Predict(x), perTree(x); !sameBits(got, want) {
			t.Fatalf("fused walk %x != per-tree baseline %x", got, want)
		}
	}
	time := func(predict func(x []float64) float64) float64 {
		res := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = predict(Xq[i%len(Xq)])
			}
		})
		return float64(res.NsPerOp())
	}
	unfused := time(perTree)
	fused := time(f.Predict)
	t.Logf("single-row: per-tree %.0f ns/op, fused %.0f ns/op (%.2fx)",
		unfused, fused, unfused/fused)
	if fused > 1.3*unfused {
		t.Errorf("fused single-row walk is %.2fx the per-tree baseline (%.0f vs %.0f ns/op), beyond the 1.3x guard",
			fused/unfused, fused, unfused)
	}
}

// BenchmarkEncodeForest appends a 100-tree extra-trees forest of about
// 1.2 M nodes (33.6 MB) to a reused buffer: the split columns are read
// back from the packed records node by node.
func BenchmarkEncodeForest(b *testing.B) {
	X, y := friedman1(6000, 0.5, 7)
	f := NewExtraTrees(100, 1)
	if err := f.Fit(X, y); err != nil {
		b.Fatal(err)
	}
	buf, err := AppendBinary(nil, f)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for range b.N {
		if buf, err = AppendBinary(buf[:0], f); err != nil {
			b.Fatal(err)
		}
	}
}
