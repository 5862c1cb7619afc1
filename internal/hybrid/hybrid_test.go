package hybrid

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"lam/internal/dataset"
	"lam/internal/ml"
)

// syntheticWorkload builds a dataset whose truth is a noisy, warped
// version of a known "analytical model": y = am(x) · warp(x) + effects
// the AM does not see. This mirrors the paper's setting.
func syntheticWorkload(n int, seed int64) (*dataset.Dataset, AnalyticalModel) {
	rng := rand.New(rand.NewSource(seed))
	ds := dataset.New("a", "b", "c")
	am := AnalyticalFunc(func(x []float64) (float64, error) {
		// A rough model: ignores feature c entirely.
		return 1 + 2*x[0] + x[1]*x[1], nil
	})
	for i := 0; i < n; i++ {
		x := []float64{rng.Float64() * 4, rng.Float64() * 3, rng.Float64()}
		base, _ := am.Predict(x)
		// Truth: calibration off by 1.7x, plus an effect on c the AM
		// misses, plus mild noise.
		y := 1.7*base*(1+0.5*x[2]) + 0.02*rng.NormFloat64()
		ds.MustAdd(x, y)
	}
	return ds, am
}

func TestHybridBeatsPureMLOnSmallTrainingSets(t *testing.T) {
	full, am := syntheticWorkload(2000, 1)
	rng := rand.New(rand.NewSource(7))
	train, test, err := full.SampleFraction(0.02, rng) // 40 samples
	if err != nil {
		t.Fatal(err)
	}

	hy, err := TrainCtx(context.Background(), train, am, Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	hyMAPE, err := hy.MAPE(test)
	if err != nil {
		t.Fatal(err)
	}

	pure := &ml.Pipeline{Model: ml.NewExtraTrees(100, 3)}
	if err := pure.Fit(train.X, train.Y); err != nil {
		t.Fatal(err)
	}
	pred := make([]float64, test.Len())
	if err := ml.PredictBatchIntoCtx(context.Background(), pure, test.X, pred, 0); err != nil {
		t.Fatal(err)
	}
	pureMAPE := ml.MAPE(test.Y, pred)

	t.Logf("hybrid MAPE = %.2f%%, pure ML MAPE = %.2f%%", hyMAPE, pureMAPE)
	if hyMAPE >= pureMAPE {
		t.Errorf("hybrid (%.2f%%) should beat pure ML (%.2f%%) at 2%% training", hyMAPE, pureMAPE)
	}
}

func TestHybridLearnsCalibration(t *testing.T) {
	// Even though the AM is off by a large factor, the stacked model
	// must land close to the truth with a decent training set.
	full, am := syntheticWorkload(2000, 2)
	rng := rand.New(rand.NewSource(8))
	train, test, _ := full.SampleFraction(0.2, rng)
	amMAPE, err := AnalyticalMAPE(test, am)
	if err != nil {
		t.Fatal(err)
	}
	hy, err := TrainCtx(context.Background(), train, am, Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	hyMAPE, _ := hy.MAPE(test)
	t.Logf("AM MAPE = %.1f%%, hybrid MAPE = %.2f%%", amMAPE, hyMAPE)
	if amMAPE < 30 {
		t.Fatalf("test setup broken: AM should be badly calibrated, got %.1f%%", amMAPE)
	}
	if hyMAPE > amMAPE/4 {
		t.Errorf("hybrid (%.2f%%) should cut the AM error (%.1f%%) at least 4x", hyMAPE, amMAPE)
	}
}

func TestHybridAggregation(t *testing.T) {
	// With Aggregate the prediction is pulled toward the AM: build a
	// case where stacked and AM differ and check the blend.
	ds := dataset.New("x")
	for i := 1; i <= 20; i++ {
		ds.MustAdd([]float64{float64(i)}, float64(2*i)) // truth 2x
	}
	am := AnalyticalFunc(func(x []float64) (float64, error) { return x[0], nil }) // AM = x
	plain, err := TrainCtx(context.Background(), ds, am, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	agg, err := TrainCtx(context.Background(), ds, am, Config{Seed: 1, Aggregate: true})
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{10}
	ps, _ := plain.Predict(x)
	pa, _ := agg.Predict(x)
	amP, _ := am.Predict(x)
	want := 0.5*ps + 0.5*amP
	if math.Float64bits(pa) != math.Float64bits(want) {
		t.Errorf("aggregate prediction %v, want the plain average %v", pa, want)
	}
}

func TestTrainValidation(t *testing.T) {
	ds, am := syntheticWorkload(10, 4)
	if _, err := TrainCtx(context.Background(), nil, am, Config{}); err == nil {
		t.Error("expected error for nil dataset")
	}
	if _, err := TrainCtx(context.Background(), dataset.New("x"), am, Config{}); err == nil {
		t.Error("expected error for empty dataset")
	}
	if _, err := TrainCtx(context.Background(), ds, nil, Config{}); err == nil {
		t.Error("expected error for nil analytical model")
	}
}

func TestTrainPropagatesAMErrors(t *testing.T) {
	ds, _ := syntheticWorkload(10, 5)
	bad := AnalyticalFunc(func(x []float64) (float64, error) { return 0, errors.New("boom") })
	if _, err := TrainCtx(context.Background(), ds, bad, Config{}); err == nil {
		t.Error("expected AM error to propagate from Train")
	}
}

func TestPredictArityChecked(t *testing.T) {
	ds, am := syntheticWorkload(50, 6)
	hy, err := TrainCtx(context.Background(), ds, am, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hy.Predict([]float64{1}); err == nil {
		t.Error("expected arity error")
	}
}

func TestAnalyticalMAPEPerfectModel(t *testing.T) {
	ds := dataset.New("x")
	for i := 1; i <= 10; i++ {
		ds.MustAdd([]float64{float64(i)}, float64(i)*3)
	}
	am := AnalyticalFunc(func(x []float64) (float64, error) { return 3 * x[0], nil })
	got, err := AnalyticalMAPE(ds, am)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Errorf("perfect AM MAPE = %v, want 0", got)
	}
}

func TestCustomMLComponent(t *testing.T) {
	ds, am := syntheticWorkload(300, 7)
	hy, err := TrainCtx(context.Background(), ds, am, Config{
		NewML: func() ml.Regressor { return ml.NewDecisionTree(ml.TreeConfig{MaxDepth: 4, Seed: 3}) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := hy.ML().(*ml.DecisionTree); !ok {
		t.Fatalf("ML component is %T, want the *ml.DecisionTree NewML built", hy.ML())
	}
	mape, err := hy.MAPE(ds)
	if err != nil {
		t.Fatal(err)
	}
	// A depth-4 tree over (x, am) on this near-multiplicative surface
	// is rough but must be sane.
	if mape > 60 {
		t.Errorf("shallow-tree hybrid MAPE = %.1f%%, want < 60%%", mape)
	}
}
