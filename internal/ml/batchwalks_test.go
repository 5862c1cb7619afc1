package ml

import (
	"math/rand"
	"testing"
)

// batchWalk is one way a compiled ensemble can score a row block.
type batchWalk struct {
	name string
	walk func(X [][]float64, out []float64)
}

// batchWalks returns every batch walk e can take: the one
// PredictBatchInto picks by table size, and the row-major and
// tree-major walks called directly — so a small fixture exercises the
// tree-major striding and a large one the row-major fold, with no
// process-wide state to flip.
func batchWalks(e *CompiledEnsemble) []batchWalk {
	return []batchWalk{
		{"dispatch", e.PredictBatchInto},
		{"row-major", e.predictBatchRowMajor},
		{"tree-major", e.predictBatchTreeMajor},
	}
}

// TestCompiledEquivalenceLayouts is the batch-walk extension of
// TestCompiledEquivalence: across random tree configurations, the
// packed table must produce bit-identical predictions to the legacy
// recursive pointer walk — single vector and batch, through both the
// row-major and the tree-major walk (called directly, see batchWalks,
// so small fixtures exercise the tree-major striding too).
func TestCompiledEquivalenceLayouts(t *testing.T) {
	rng := rand.New(rand.NewSource(0x1a7))
	for trial := 0; trial < 8; trial++ {
		n := 30 + rng.Intn(170)
		p := 1 + rng.Intn(6)
		X, y := randomRegression(rng, n, p)
		Xq, _ := randomRegression(rng, 48, p)
		cfg := randomTreeConfig(rng)

		f := &Forest{NTrees: 2 + rng.Intn(8), Tree: cfg, Bootstrap: rng.Intn(2) == 0, Seed: rng.Int63(), Workers: 1}
		if err := f.Fit(X, y); err != nil {
			t.Fatal(err)
		}
		refs := make([]*refNode, len(f.trees))
		for i, tr := range f.trees {
			refs[i] = refTree(&tr.nodes)
		}

		out := make([]float64, len(Xq))
		for _, bw := range batchWalks(f.compiled) {
			bw.walk(Xq, out)
			for i, x := range Xq {
				want := refForestPredict(refs, x)
				if !sameBits(out[i], want) {
					t.Fatalf("forest %s row %d: %x != recursive %x (cfg %+v)", bw.name, i, out[i], want, cfg)
				}
			}
		}
		for _, x := range Xq {
			if got, want := f.Predict(x), refForestPredict(refs, x); !sameBits(got, want) {
				t.Fatalf("forest single: %x != recursive %x (cfg %+v)", got, want, cfg)
			}
		}
	}
}

// TestLayoutPredictAllocationFree extends the serve-hot-path contract
// of TestPredictAllocationFree to each batch walk called directly: the
// single-row walk, the dispatching batch walk, and the row-major and
// tree-major walks stay allocation-free in steady state.
func TestLayoutPredictAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	rng := rand.New(rand.NewSource(0xa110c))
	X, y := randomRegression(rng, 200, 4)
	Xq, _ := randomRegression(rng, 50, 4)
	out := make([]float64, len(Xq))

	f := &Forest{NTrees: 10, Seed: 1, Workers: 1}
	if err := f.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	x := Xq[0]
	if allocs := testing.AllocsPerRun(100, func() { f.Predict(x) }); allocs != 0 {
		t.Errorf("Predict allocates %.1f per call, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		if err := PredictBatchInto(f, Xq, out, 1); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("PredictBatchInto allocates %.1f per batch, want 0", allocs)
	}
	for _, bw := range batchWalks(f.compiled) {
		if allocs := testing.AllocsPerRun(50, func() { bw.walk(Xq, out) }); allocs != 0 {
			t.Errorf("%s: batch walk allocates %.1f per batch, want 0", bw.name, allocs)
		}
	}
}
