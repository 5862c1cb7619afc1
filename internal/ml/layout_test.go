package ml

import (
	"math/rand"
	"testing"
)

// exactLayouts are the layouts that must stay bit-identical to the
// recursive reference walk.
var exactLayouts = []Layout{LayoutImplicitLeft, LayoutStandard, LayoutLevelOrder}

// batchWalk is one way a compiled ensemble can score a row block.
type batchWalk struct {
	name string
	walk func(X [][]float64, out []float64)
}

// batchWalks returns every batch walk e's active layout can take: the
// one PredictBatchInto picks by table size and, for the layouts that
// have both, the row-major and tree-major walks called directly — so a
// small fixture exercises the tree-major striding and a large one the
// row-major fold, with no process-wide state to flip.
func batchWalks(e *CompiledEnsemble) []batchWalk {
	walks := []batchWalk{{"dispatch", e.PredictBatchInto}}
	switch e.layout {
	case LayoutImplicitLeft, LayoutStandard:
		walks = append(walks,
			batchWalk{"row-major", e.predictBatchRowMajor},
			batchWalk{"tree-major", e.predictBatchTreeMajor})
	case LayoutQuant16, LayoutQuant8:
		walks = append(walks, quantBatchWalks(e.qt)...)
	}
	return walks
}

// quantBatchWalks returns q's row-major and tree-major walks, each
// behind the row quantization predictBatchInto does first.
func quantBatchWalks(q *quantEnsemble) []batchWalk {
	over := func(walk func(flat []uint16, out []float64)) func(X [][]float64, out []float64) {
		return func(X [][]float64, out []float64) {
			p := q.nFeatures
			flat := make([]uint16, len(X)*p)
			for i, x := range X {
				q.quantizeRow(x, flat[i*p:(i+1)*p])
			}
			walk(flat, out[:len(X)])
		}
	}
	return []batchWalk{
		{"row-major", over(q.predictBatchRowMajor)},
		{"tree-major", over(q.predictBatchTreeMajor)},
	}
}

func TestLayoutParseRoundTrip(t *testing.T) {
	for _, l := range []Layout{LayoutDefault, LayoutImplicitLeft, LayoutStandard,
		LayoutLevelOrder, LayoutQuant16, LayoutQuant8} {
		got, err := ParseLayout(l.String())
		if err != nil {
			t.Fatalf("ParseLayout(%q): %v", l.String(), err)
		}
		if got != l {
			t.Fatalf("ParseLayout(%q) = %v, want %v", l.String(), got, l)
		}
	}
	if l, err := ParseLayout("branchless"); err != nil || l != LayoutImplicitLeft {
		t.Fatalf("branchless alias: got %v, %v", l, err)
	}
	if _, err := ParseLayout("zigzag"); err == nil {
		t.Fatal("unknown layout name accepted")
	}
}

// TestCompiledEquivalenceLayouts is the layout extension of
// TestCompiledEquivalence: across random tree configurations, every
// exact layout must produce bit-identical predictions to the legacy
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

		g := &GradientBoosting{NStages: 2 + rng.Intn(8), MaxDepth: 1 + rng.Intn(4), Seed: rng.Int63(), Workers: 1}
		if err := g.Fit(X, y); err != nil {
			t.Fatal(err)
		}
		grefs := make([]*refNode, len(g.stages))
		for i, tr := range g.stages {
			grefs[i] = refTree(&tr.nodes)
		}

		out := make([]float64, len(Xq))
		for _, layout := range exactLayouts {
			if err := SetLayoutOf(f, layout); err != nil {
				t.Fatalf("forest SetLayoutOf(%v): %v", layout, err)
			}
			if err := SetLayoutOf(g, layout); err != nil {
				t.Fatalf("gbr SetLayoutOf(%v): %v", layout, err)
			}
			if got := f.compiled.Layout(); got != layout {
				t.Fatalf("forest layout = %v, want %v", got, layout)
			}
			for _, bw := range batchWalks(f.compiled) {
				bw.walk(Xq, out)
				for i, x := range Xq {
					want := refForestPredict(refs, x)
					if !sameBits(out[i], want) {
						t.Fatalf("forest %v %s row %d: %x != recursive %x (cfg %+v)", layout, bw.name, i, out[i], want, cfg)
					}
				}
			}
			for _, bw := range batchWalks(g.compiled) {
				bw.walk(Xq, out)
				for i, x := range Xq {
					want := refBoostedPredict(grefs, g.init, g.rate, x)
					if !sameBits(out[i], want) {
						t.Fatalf("gbr %v %s row %d: %x != recursive %x", layout, bw.name, i, out[i], want)
					}
				}
			}
			for _, x := range Xq {
				if got, want := f.Predict(x), refForestPredict(refs, x); !sameBits(got, want) {
					t.Fatalf("forest %v single: %x != recursive %x (cfg %+v)", layout, got, want, cfg)
				}
				if got, want := g.Predict(x), refBoostedPredict(grefs, g.init, g.rate, x); !sameBits(got, want) {
					t.Fatalf("gbr %v single: %x != recursive %x", layout, got, want)
				}
			}
		}
	}
}

// TestSetDefaultLayout asserts the process default is applied at
// compile time and stays bit-identical across exact layouts.
func TestSetDefaultLayout(t *testing.T) {
	defer SetDefaultLayout(LayoutDefault)
	rng := rand.New(rand.NewSource(0xd3f))
	X, y := randomRegression(rng, 150, 3)
	Xq, _ := randomRegression(rng, 32, 3)

	f := &Forest{NTrees: 6, Seed: 1, Workers: 1}
	if err := f.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	want := f.PredictBatch(Xq)

	SetDefaultLayout(LayoutStandard)
	if got := DefaultLayout(); got != LayoutStandard {
		t.Fatalf("DefaultLayout = %v, want standard", got)
	}
	f2 := &Forest{NTrees: 6, Seed: 1, Workers: 1}
	if err := f2.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if got := f2.compiled.Layout(); got != LayoutStandard {
		t.Fatalf("compiled layout = %v, want standard", got)
	}
	for i, x := range Xq {
		if got := f2.Predict(x); !sameBits(got, want[i]) {
			t.Fatalf("row %d: standard-default %x != implicit-left %x", i, got, want[i])
		}
	}
}

// TestLayoutEstimatorConfig asserts the per-estimator Layout knob is
// honoured at Fit time, including quantized layouts.
func TestLayoutEstimatorConfig(t *testing.T) {
	rng := rand.New(rand.NewSource(0xcf9))
	X, y := randomRegression(rng, 150, 4)

	f := &Forest{NTrees: 5, Seed: 2, Workers: 1, Layout: LayoutLevelOrder}
	if err := f.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if got := f.compiled.Layout(); got != LayoutLevelOrder {
		t.Fatalf("forest layout = %v, want level-order", got)
	}

	g := &GradientBoosting{NStages: 5, Seed: 2, Workers: 1, Layout: LayoutStandard}
	if err := g.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if got := g.compiled.Layout(); got != LayoutStandard {
		t.Fatalf("gbr layout = %v, want standard", got)
	}

	bag := &Bagging{
		NewBase: func() Regressor { return NewDecisionTree(TreeConfig{Seed: 3, MaxDepth: 5}) },
		N:       4, Seed: 2, Workers: 1, Layout: LayoutQuant16,
	}
	if err := bag.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if got := bag.compiled.Layout(); got != LayoutQuant16 {
		t.Fatalf("bagging layout = %v, want quant16", got)
	}
	if l, ok := LayoutOf(bag); !ok || l != LayoutQuant16 {
		t.Fatalf("LayoutOf(bagging) = %v, %v", l, ok)
	}
}

// TestSetLayoutOfErrors pins the misuse contract of the structural
// relayout helper.
func TestSetLayoutOfErrors(t *testing.T) {
	if err := SetLayoutOf(&Forest{}, LayoutStandard); err == nil {
		t.Error("relayout of an unfitted forest accepted")
	}
	lr := &LinearRegression{}
	if err := SetLayoutOf(lr, LayoutImplicitLeft); err != nil {
		t.Errorf("exact layout on a non-tree model should be a no-op, got %v", err)
	}
	if err := SetLayoutOf(lr, LayoutQuant8); err == nil {
		t.Error("quantized layout on a non-tree model accepted")
	}
	rng := rand.New(rand.NewSource(9))
	X, y := randomRegression(rng, 60, 3)
	tr := NewDecisionTree(TreeConfig{Seed: 1, MaxDepth: 4})
	if err := tr.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if err := SetLayoutOf(tr, LayoutLevelOrder); err != nil {
		t.Errorf("exact layout on a bare tree should be a no-op, got %v", err)
	}
	if err := SetLayoutOf(tr, LayoutQuant16); err == nil {
		t.Error("in-place quantization of a bare tree accepted (should direct to Quantize)")
	}
}

// TestLayoutPredictAllocationFree extends the serve-hot-path contract
// to the alternative layouts: every layout's single and sequential
// batch prediction stays allocation-free in steady state.
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
	layouts := append([]Layout{LayoutQuant16, LayoutQuant8}, exactLayouts...)
	for _, layout := range layouts {
		if err := SetLayoutOf(f, layout); err != nil {
			t.Fatal(err)
		}
		x := Xq[0]
		if allocs := testing.AllocsPerRun(100, func() { f.Predict(x) }); allocs != 0 {
			t.Errorf("%v: Predict allocates %.1f per call, want 0", layout, allocs)
		}
		if allocs := testing.AllocsPerRun(50, func() {
			if err := f.PredictBatchInto(Xq, out); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("%v: PredictBatchInto allocates %.1f per batch, want 0", layout, allocs)
		}
		walks := batchWalks(f.compiled)
		if q := f.compiled.qt; q != nil {
			// The quantized walks score a pre-quantized block; the
			// pooled quantization in front of them is covered by
			// "dispatch".
			flat := make([]uint16, len(Xq)*q.nFeatures)
			walks = []batchWalk{walks[0],
				{"row-major", func(_ [][]float64, out []float64) { q.predictBatchRowMajor(flat, out) }},
				{"tree-major", func(_ [][]float64, out []float64) { q.predictBatchTreeMajor(flat, out) }},
			}
		}
		for _, bw := range walks {
			if allocs := testing.AllocsPerRun(50, func() { bw.walk(Xq, out) }); allocs != 0 {
				t.Errorf("%v %s: batch walk allocates %.1f per batch, want 0", layout, bw.name, allocs)
			}
		}
	}
}
