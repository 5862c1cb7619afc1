package lam

import (
	"context"
	"math/rand"
	"testing"
)

func TestMachinePresets(t *testing.T) {
	names := Machines()
	if len(names) < 3 {
		t.Fatalf("machines = %v, want >= 3 presets", names)
	}
	for _, n := range names {
		if _, err := MachineByName(n); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := MachineByName("nope"); err == nil {
		t.Error("expected error for unknown machine")
	}
	if BlueWaters().Name == "" {
		t.Error("BlueWaters preset must be named")
	}
}

func TestWorkloadsBuildAndHaveAMs(t *testing.T) {
	m := BlueWaters()
	for _, w := range Workloads() {
		if w == "fmm" || w == "stencil-blocking" {
			continue // exercised in the end-to-end test below; slow here
		}
		ds, err := BuildDataset(w, m, 1)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if ds.Len() == 0 {
			t.Errorf("%s: empty dataset", w)
		}
		am, err := AnalyticalModelFor(w, m)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if _, err := am.Predict(ds.X[0]); err != nil {
			t.Errorf("%s: AM predict: %v", w, err)
		}
	}
	if _, err := BuildDataset("nope", m, 1); err == nil {
		t.Error("expected error for unknown workload")
	}
	if _, err := AnalyticalModelFor("nope", m); err == nil {
		t.Error("expected error for unknown workload AM")
	}
}

func TestEndToEndHybridBeatsPureMLOnFig6Workload(t *testing.T) {
	// The paper's headline claim, end to end through the facade: on
	// the blocking dataset at 2% training, the hybrid model beats pure
	// extra trees by a wide margin.
	m := BlueWaters()
	ds, err := BuildDataset("stencil-blocking", m, 7)
	if err != nil {
		t.Fatal(err)
	}
	am, err := AnalyticalModelFor("stencil-blocking", m)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	train, test, err := ds.SampleFraction(0.02, rng)
	if err != nil {
		t.Fatal(err)
	}

	hy, err := TrainHybridCtx(context.Background(), train, am, HybridConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	hyMAPE, err := hy.MAPE(test)
	if err != nil {
		t.Fatal(err)
	}

	et := NewExtraTrees(100, 1)
	if err := et.Fit(train.X, train.Y); err != nil {
		t.Fatal(err)
	}
	etPred, err := MLPredictor(et).PredictBatch(context.Background(), test.X)
	if err != nil {
		t.Fatal(err)
	}
	etMAPE := MAPE(test.Y, etPred)

	t.Logf("fig6 @2%%: hybrid %.1f%%, extra trees %.1f%%", hyMAPE, etMAPE)
	if hyMAPE >= etMAPE/2 {
		t.Errorf("hybrid (%.1f%%) should at least halve pure-ML error (%.1f%%)", hyMAPE, etMAPE)
	}
	amMAPE, err := AnalyticalMAPECtx(context.Background(), test, am)
	if err != nil {
		t.Fatal(err)
	}
	if hyMAPE >= amMAPE {
		t.Errorf("hybrid (%.1f%%) should beat the raw AM (%.1f%%)", hyMAPE, amMAPE)
	}
}

func TestFigureRunnerSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("figure regeneration is slow")
	}
	r, err := FigureCtx(context.Background(), "fig5", FigureOptions{Seed: 1, Reps: 2, Trees: 20})
	if err != nil {
		t.Fatal(err)
	}
	if r.ID != "fig5" || len(r.Series) != 2 {
		t.Errorf("unexpected report shape: %+v", r)
	}
	if _, err := FigureCtx(context.Background(), "nope", FigureOptions{}); err == nil {
		t.Error("expected error for unknown figure")
	}
	if len(FigureIDs()) != 6 {
		t.Errorf("FigureIDs = %v, want 6 figures", FigureIDs())
	}
}
