package experiments

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"lam/internal/dataset"
	"lam/internal/hybrid"
	"lam/internal/machine"
	"lam/internal/workload"
)

func bw() *machine.Machine { return machine.BlueWatersXE6() }

// TestBlockSizes reads the block-size ladder back out of the blocking
// dataset: for a J extent the bj candidates are the powers of two below
// it, then the extent itself.
func TestBlockSizes(t *testing.T) {
	ds := canonicalDataset(t, "stencil-blocking")
	ladder := func(j float64) []float64 {
		seen := map[float64]bool{}
		var out []float64
		for _, x := range ds.X {
			if x[1] == j && !seen[x[4]] {
				seen[x[4]] = true
				out = append(out, x[4])
			}
		}
		return out
	}
	if got, want := ladder(16), []float64{1, 2, 4, 8, 16}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("bj ladder for J=16 = %v, want %v", got, want)
	}
	// powers of two below 48, then 48 itself
	if got, want := ladder(48), []float64{1, 2, 4, 8, 16, 32, 48}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("bj ladder for J=48 = %v, want %v", got, want)
	}
}

// canonicalDataset builds a catalogue dataset on Blue Waters, seed 1.
func canonicalDataset(t *testing.T, name string) *dataset.Dataset {
	t.Helper()
	ds, err := DatasetByName(name, bw(), 1)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestStencilGridDatasetShape(t *testing.T) {
	ds := canonicalDataset(t, "stencil-grid")
	if ds.Len() != 9*9*9 {
		t.Errorf("grid dataset has %d rows, want 729", ds.Len())
	}
	if ds.NumFeatures() != 3 {
		t.Errorf("grid dataset arity %d, want 3", ds.NumFeatures())
	}
	for _, y := range ds.Y {
		if y <= 0 {
			t.Fatal("non-positive response in grid dataset")
		}
	}
}

func TestStencilBlockingDatasetShape(t *testing.T) {
	ds := canonicalDataset(t, "stencil-blocking")
	if ds.NumFeatures() != 6 {
		t.Errorf("blocking dataset arity %d, want 6", ds.NumFeatures())
	}
	if ds.Len() < 2000 {
		t.Errorf("blocking dataset has %d rows, want a few thousand", ds.Len())
	}
	// All block sizes divide into valid candidates, bi == 1 everywhere.
	bi, err := ds.Column("bi")
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range bi {
		if v != 1 {
			t.Fatal("bi must be 1 (I = 1 in the paper's sweep)")
		}
	}
}

func TestStencilThreadsDatasetShape(t *testing.T) {
	ds := canonicalDataset(t, "stencil-threads")
	if ds.NumFeatures() != 4 {
		t.Errorf("threads dataset arity %d, want 4", ds.NumFeatures())
	}
	tcol, err := ds.Column("t")
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := tcol[0], tcol[0]
	for _, v := range tcol {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if lo != 1 || hi != 8 {
		t.Errorf("thread range [%v, %v], want [1, 8]", lo, hi)
	}
}

func TestFMMDatasetShape(t *testing.T) {
	ds := canonicalDataset(t, "fmm")
	if ds.Len() != 16*3*len(workload.FMMQValues)*11 {
		t.Errorf("fmm dataset has %d rows, want %d", ds.Len(), 16*3*len(workload.FMMQValues)*11)
	}
	if ds.NumFeatures() != 4 {
		t.Errorf("fmm dataset arity %d, want 4", ds.NumFeatures())
	}
}

func TestDatasetByNameAndAMByDataset(t *testing.T) {
	for _, name := range []string{"stencil-grid", "stencil-threads"} {
		ds, err := DatasetByName(name, bw(), 1)
		if err != nil {
			t.Fatal(err)
		}
		am, err := AMByDataset(name, bw())
		if err != nil {
			t.Fatal(err)
		}
		p, err := am.Predict(ds.X[0])
		if err != nil {
			t.Fatal(err)
		}
		if p <= 0 {
			t.Errorf("%s AM predicted %v", name, p)
		}
	}
	if _, err := DatasetByName("zzz", bw(), 1); err == nil {
		t.Error("expected unknown-dataset error")
	}
	if _, err := AMByDataset("zzz", bw()); err == nil {
		t.Error("expected unknown-AM error")
	}
}

func TestMAPECurveShapesAndDeterminism(t *testing.T) {
	ds := canonicalDataset(t, "stencil-grid")
	newModel := MLTrainable(DefaultPipeline("et", 20))
	fractions := []float64{0.05, 0.10}
	a, err := MAPECurveCtx(context.Background(), ds, newModel, fractions, 2, 9, "et", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.MeanMAPE) != 2 || len(a.StdMAPE) != 2 || len(a.MedianMAPE) != 2 {
		t.Fatalf("curve shape wrong: %+v", a)
	}
	b, err := MAPECurveCtx(context.Background(), ds, newModel, fractions, 2, 9, "et", 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.MeanMAPE {
		if a.MeanMAPE[i] != b.MeanMAPE[i] {
			t.Errorf("curve not deterministic at %d: %v vs %v", i, a.MeanMAPE[i], b.MeanMAPE[i])
		}
	}
	// More training data should not hurt on average (weak monotonicity
	// with generous tolerance for sampling noise).
	if a.MeanMAPE[1] > a.MeanMAPE[0]*1.5 {
		t.Errorf("MAPE grew sharply with more data: %v", a.MeanMAPE)
	}
}

func TestHybridTrainableWiring(t *testing.T) {
	ds := canonicalDataset(t, "stencil-grid")
	am, err := AMByDataset("stencil-grid", bw())
	if err != nil {
		t.Fatal(err)
	}
	newModel := HybridTrainable(am, hybrid.Config{})
	s, err := MAPECurveCtx(context.Background(), ds, newModel, []float64{0.02}, 2, 5, "hybrid", 0)
	if err != nil {
		t.Fatal(err)
	}
	if s.MeanMAPE[0] <= 0 || s.MeanMAPE[0] > 50 {
		t.Errorf("hybrid curve MAPE = %v, want sane", s.MeanMAPE[0])
	}
}

func TestReportRender(t *testing.T) {
	r := &Report{
		ID: "figX", Title: "demo", DatasetSize: 10,
		Notes: []string{"hello"},
		Series: []Series{{
			Label: "model", Fractions: []float64{0.01},
			MeanMAPE: []float64{12.3}, StdMAPE: []float64{1.2}, MedianMAPE: []float64{12.0},
			Reps: 3,
		}},
	}
	var buf bytes.Buffer
	if err := r.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"figX", "demo", "hello", "model", "12.30", "1.0%"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered report missing %q:\n%s", want, out)
		}
	}
}

func TestRunUnknownFigure(t *testing.T) {
	if _, err := RunCtx(context.Background(), "fig99", Options{}); err == nil {
		t.Error("expected unknown-figure error")
	}
}

func TestAllFigureIDsRunnable(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	// Smallest possible configuration: just verify each figure runner
	// completes and produces non-empty series.
	opts := Options{Seed: 1, Reps: 1, Trees: 10}
	for _, id := range AllFigureIDs() {
		r, err := RunCtx(context.Background(), id, opts)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(r.Series) == 0 {
			t.Errorf("%s: no series", id)
		}
		for _, s := range r.Series {
			for i, m := range s.MeanMAPE {
				if m <= 0 || m > 10000 {
					t.Errorf("%s %s[%d]: MAPE %v insane", id, s.Label, i, m)
				}
			}
		}
	}
}
