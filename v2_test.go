package lam

import (
	"context"
	"errors"
	"math/rand"
	"testing"
)

// v2Fixture trains a hybrid model and an extra-trees pipeline on the
// stencil-grid workload and returns them with a held-out matrix.
func v2Fixture(t *testing.T) (*HybridModel, Regressor, [][]float64) {
	t.Helper()
	m := BlueWaters()
	ds, err := BuildDataset("stencil-grid", m, 42)
	if err != nil {
		t.Fatal(err)
	}
	am, err := AnalyticalModelFor("stencil-grid", m)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	train, test, err := ds.SampleFraction(0.02, rng)
	if err != nil {
		t.Fatal(err)
	}
	hy, err := TrainHybridCtx(context.Background(), train, am, HybridConfig{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	et := NewExtraTrees(30, 5)
	if err := et.Fit(train.X, train.Y); err != nil {
		t.Fatal(err)
	}
	return hy, et, test.X[:40]
}

// TestPredictorAdaptersBitIdentical checks both adapters agree exactly
// with per-row Predict calls.
func TestPredictorAdaptersBitIdentical(t *testing.T) {
	hy, et, X := v2Fixture(t)
	ctx := context.Background()

	var hp Predictor = HybridPredictor(hy)
	got, err := hp.PredictBatch(ctx, X)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range X {
		want, err := hy.Predict(x)
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != want {
			t.Fatalf("hybrid row %d: %v != %v", i, got[i], want)
		}
	}

	var mp Predictor = MLPredictor(et)
	got, err = mp.PredictBatch(ctx, X)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range X {
		if want := et.Predict(x); got[i] != want {
			t.Fatalf("ml row %d: %v != %v", i, got[i], want)
		}
	}
}

// TestPredictorTypedErrors covers ErrNotFitted, ErrDimension and
// ErrCancelled on the adapter paths.
func TestPredictorTypedErrors(t *testing.T) {
	hy, et, X := v2Fixture(t)
	ctx := context.Background()

	if _, err := MLPredictor(NewExtraTrees(5, 1)).Predict(ctx, X[0]); !errors.Is(err, ErrNotFitted) {
		t.Fatalf("unfitted: got %v, want ErrNotFitted", err)
	}
	if _, err := MLPredictor(et).Predict(ctx, []float64{1}); !errors.Is(err, ErrDimension) {
		t.Fatalf("bad arity (ml): got %v, want ErrDimension", err)
	}
	if _, err := HybridPredictor(hy).Predict(ctx, []float64{1}); !errors.Is(err, ErrDimension) {
		t.Fatalf("bad arity (hybrid): got %v, want ErrDimension", err)
	}

	// Wrong arity through the free function must be a typed error, not
	// the estimator's index-out-of-range panic in a worker goroutine.
	if err := PredictBatchIntoCtx(ctx, et, [][]float64{{1}}, make([]float64, 1)); !errors.Is(err, ErrDimension) {
		t.Fatalf("bad arity (PredictBatchIntoCtx): got %v, want ErrDimension", err)
	}
	if _, err := MLPredictor(et).PredictBatch(ctx, [][]float64{X[0], {1}}); !errors.Is(err, ErrDimension) {
		t.Fatalf("bad arity (adapter batch): got %v, want ErrDimension", err)
	}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := HybridPredictor(hy).PredictBatch(cancelled, X); !errors.Is(err, ErrCancelled) {
		t.Fatalf("cancelled batch: got %v, want ErrCancelled", err)
	}
	if _, err := FigureCtx(cancelled, "fig5", FigureOptions{Reps: 1, Trees: 5}); !errors.Is(err, ErrCancelled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled figure: got %v, want ErrCancelled wrapping context.Canceled", err)
	}
}

// TestRegistryThroughFacade round-trips a hybrid model through
// OpenRegistry and checks the loaded Predictor is bit-identical.
func TestRegistryThroughFacade(t *testing.T) {
	hy, _, X := v2Fixture(t)
	ctx := context.Background()

	reg, err := OpenRegistry(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	meta, err := reg.SaveHybrid(hy, ModelMeta{
		Name: "grid", Workload: "stencil-grid", Machine: "bluewaters",
	})
	if err != nil {
		t.Fatal(err)
	}
	lm, err := reg.Load(meta.Name, 0)
	if err != nil {
		t.Fatal(err)
	}
	var p Predictor = lm
	got, err := p.PredictBatch(ctx, X)
	if err != nil {
		t.Fatal(err)
	}
	want, err := HybridPredictor(hy).PredictBatch(ctx, X)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d: registry %v != library %v", i, got[i], want[i])
		}
	}
	if _, err := reg.Load("missing", 0); !errors.Is(err, ErrUnknownModel) {
		t.Fatalf("missing model: got %v, want ErrUnknownModel", err)
	}
}

// TestUnknownSentinelsOnFacade checks MachineByName/BuildDataset/
// FigureCtx wrap their sentinels.
func TestUnknownSentinelsOnFacade(t *testing.T) {
	if _, err := MachineByName("nope"); !errors.Is(err, ErrUnknownMachine) {
		t.Fatalf("machine: got %v, want ErrUnknownMachine", err)
	}
	if _, err := BuildDataset("nope", BlueWaters(), 1); !errors.Is(err, ErrUnknownWorkload) {
		t.Fatalf("workload: got %v, want ErrUnknownWorkload", err)
	}
	if _, err := FigureCtx(context.Background(), "nope", FigureOptions{}); !errors.Is(err, ErrUnknownFigure) {
		t.Fatalf("figure: got %v, want ErrUnknownFigure", err)
	}
}
