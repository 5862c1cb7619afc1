package ml

import (
	"context"
	"math"
	"testing"
)

func TestGradientBoostingLearnsFriedman(t *testing.T) {
	trainX, trainY := friedman1(600, 0.3, 51)
	testX, testY := friedman1(300, 0, 52)
	g := &GradientBoosting{NStages: 200, LearningRate: 0.1, MaxDepth: 3, Seed: 1}
	if err := g.Fit(trainX, trainY); err != nil {
		t.Fatal(err)
	}
	if r2 := R2(testY, predictAll(t, g, testX)); r2 < 0.9 {
		t.Errorf("boosting R2 = %v, want >= 0.9", r2)
	}
}

func TestGradientBoostingBeatsSingleShallowTree(t *testing.T) {
	trainX, trainY := friedman1(400, 0.5, 53)
	testX, testY := friedman1(300, 0, 54)
	g := &GradientBoosting{NStages: 150, MaxDepth: 3, Seed: 1}
	if err := g.Fit(trainX, trainY); err != nil {
		t.Fatal(err)
	}
	shallow := NewDecisionTree(TreeConfig{MaxDepth: 3})
	if err := shallow.Fit(trainX, trainY); err != nil {
		t.Fatal(err)
	}
	ge := RMSE(testY, predictAll(t, g, testX))
	se := RMSE(testY, predictAll(t, shallow, testX))
	if ge >= se {
		t.Errorf("boosting RMSE %v should beat a single depth-3 tree %v", ge, se)
	}
}

func TestGradientBoostingStagedPredictMonotoneTrainingError(t *testing.T) {
	X, y := friedman1(300, 0.2, 55)
	g := &GradientBoosting{NStages: 50, MaxDepth: 3, Seed: 2}
	if err := g.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	// Training error after the final stage must not exceed the error of
	// the first stage (boosting fits residuals).
	firstErr, lastErr := 0.0, 0.0
	if g.NumStages() != 50 {
		t.Fatalf("fitted %d stages, want 50", g.NumStages())
	}
	staged := make([]float64, g.NumStages())
	for i, x := range X {
		if err := g.StagedPredictInto(x, staged); err != nil {
			t.Fatal(err)
		}
		d0 := staged[0] - y[i]
		dN := staged[len(staged)-1] - y[i]
		firstErr += d0 * d0
		lastErr += dN * dN
		if staged[len(staged)-1] != g.Predict(x) {
			t.Fatal("final staged prediction must equal Predict")
		}
	}
	if lastErr >= firstErr {
		t.Errorf("boosting did not reduce training error: stage1 %v vs final %v", firstErr, lastErr)
	}
}

func TestGradientBoostingSubsample(t *testing.T) {
	X, y := friedman1(300, 0.5, 56)
	g := &GradientBoosting{NStages: 60, Subsample: 0.5, Seed: 3}
	if err := g.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if g.NumStages() != 60 {
		t.Errorf("stages = %d, want 60", g.NumStages())
	}
	if r2 := R2(y, predictAll(t, g, X)); r2 < 0.7 {
		t.Errorf("stochastic boosting training R2 = %v, want >= 0.7", r2)
	}
}

func TestGradientBoostingDeterministic(t *testing.T) {
	X, y := friedman1(200, 0.5, 57)
	a := &GradientBoosting{NStages: 30, Subsample: 0.7, Seed: 9}
	b := &GradientBoosting{NStages: 30, Subsample: 0.7, Seed: 9}
	if err := a.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if err := b.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	probes, _ := friedman1(20, 0, 58)
	for _, x := range probes {
		if a.Predict(x) != b.Predict(x) {
			t.Fatal("same-seed boosting disagrees")
		}
	}
}

func TestGradientBoostingConstantTarget(t *testing.T) {
	X := [][]float64{{1}, {2}, {3}}
	y := []float64{5, 5, 5}
	g := &GradientBoosting{NStages: 10}
	if err := g.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if got := g.Predict([]float64{10}); math.Abs(got-5) > 1e-9 {
		t.Errorf("constant target predicted %v, want 5", got)
	}
}

func TestGradientBoostingErrorsAndPanics(t *testing.T) {
	g := &GradientBoosting{}
	if err := g.Fit(nil, nil); err == nil {
		t.Error("expected error for empty data")
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic before fit")
		}
	}()
	(&GradientBoosting{}).Predict([]float64{1})
}

func TestGridSearchFindsBetterDepth(t *testing.T) {
	X, y := friedman1(300, 0.3, 61)
	grids := []ParamGrid{
		{Name: "depth", Values: []float64{1, 6}},
		{Name: "leaf", Values: []float64{1, 5}},
	}
	best, all, err := GridSearchCtx(context.Background(), grids,
		func(p map[string]float64) Regressor {
			return NewDecisionTree(TreeConfig{
				MaxDepth:       int(p["depth"]),
				MinSamplesLeaf: int(p["leaf"]),
			})
		},
		X, y, 4, 7, MAPE, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 4 {
		t.Fatalf("evaluated %d combos, want 4", len(all))
	}
	if best.Params["depth"] != 6 {
		t.Errorf("best depth = %v, want 6 (depth 1 badly underfits)", best.Params["depth"])
	}
	for _, r := range all {
		if r.Score < best.Score {
			t.Errorf("combo %v scored %v better than reported best %v", r.Params, r.Score, best.Score)
		}
	}
}

func TestGridSearchValidation(t *testing.T) {
	X, y := friedman1(20, 0, 62)
	if _, _, err := GridSearchCtx(context.Background(), nil, nil, X, y, 3, 1, MAPE, 0); err == nil {
		t.Error("expected error with no grids")
	}
	grids := []ParamGrid{{Name: "a", Values: nil}}
	if _, _, err := GridSearchCtx(context.Background(), grids, nil, X, y, 3, 1, MAPE, 0); err == nil {
		t.Error("expected error with empty value list")
	}
	grids = []ParamGrid{{Name: "a", Values: []float64{1}}}
	if _, _, err := GridSearchCtx(context.Background(), grids, func(map[string]float64) Regressor { return &KNN{} },
		nil, nil, 3, 1, MAPE, 0); err == nil {
		t.Error("expected error with empty data")
	}
}
