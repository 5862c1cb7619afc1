package experiments

import (
	"context"
	"math/rand"
	"testing"

	"lam/internal/hybrid"
	"lam/internal/ml"
)

func TestStencilFullDatasetShape(t *testing.T) {
	ds := canonicalDataset(t, "stencil-full")
	if ds.NumFeatures() != 8 {
		t.Fatalf("full dataset arity %d, want 8", ds.NumFeatures())
	}
	// 3 dims × 2 bi × 3 bj × 3 bk × 4 unrolls × 3 threads
	want := 3 * 2 * 3 * 3 * 4 * 3
	if ds.Len() != want {
		t.Errorf("full dataset has %d rows, want %d", ds.Len(), want)
	}
	for _, y := range ds.Y {
		if y <= 0 {
			t.Fatal("non-positive response")
		}
	}
}

func TestStencilFullHybridBeatsPureML(t *testing.T) {
	// Even on the full 8-D space with two AM-invisible dimensions, the
	// hybrid should beat pure ML at a small training fraction.
	ds, err := DatasetByName("stencil-full", bw(), 7)
	if err != nil {
		t.Fatal(err)
	}
	am, err := AMByDataset("stencil-full", bw())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	train, test, err := ds.SampleFraction(0.03, rng)
	if err != nil {
		t.Fatal(err)
	}
	hy, err := hybrid.TrainCtx(context.Background(), train, am, hybrid.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	hyMAPE, err := hy.MAPE(test)
	if err != nil {
		t.Fatal(err)
	}
	et := &ml.Pipeline{Model: ml.NewExtraTrees(100, 1)}
	if err := et.Fit(train.X, train.Y); err != nil {
		t.Fatal(err)
	}
	pred := make([]float64, test.Len())
	if err := ml.PredictBatchIntoCtx(context.Background(), et, test.X, pred, 0); err != nil {
		t.Fatal(err)
	}
	etMAPE := ml.MAPE(test.Y, pred)
	t.Logf("full 8-D space @3%%: hybrid %.1f%%, pure ET %.1f%%", hyMAPE, etMAPE)
	if hyMAPE >= etMAPE {
		t.Errorf("hybrid (%.1f%%) should beat pure ML (%.1f%%)", hyMAPE, etMAPE)
	}
}
