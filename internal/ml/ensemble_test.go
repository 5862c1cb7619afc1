package ml

import (
	"math"
	"testing"
)

func TestBaggingReducesVariance(t *testing.T) {
	// On a noisy surface, bagged deep trees should beat one deep tree
	// out of sample.
	trainX, trainY := friedman1(300, 2.0, 21)
	testX, testY := friedman1(300, 0, 22)

	single := NewDecisionTree(TreeConfig{Seed: 1})
	if err := single.Fit(trainX, trainY); err != nil {
		t.Fatal(err)
	}
	bag := &Bagging{
		NewBase: func() Regressor { return NewDecisionTree(TreeConfig{Seed: 1}) },
		N:       30,
		Seed:    5,
	}
	if err := bag.Fit(trainX, trainY); err != nil {
		t.Fatal(err)
	}
	if bag.NumModels() != 30 {
		t.Fatalf("bagging fitted %d models, want 30", bag.NumModels())
	}
	se := RMSE(testY, predictAll(t, single, testX))
	be := RMSE(testY, predictAll(t, bag, testX))
	if be >= se {
		t.Errorf("bagging RMSE %v should beat single tree %v", be, se)
	}
}

func TestBaggingDefaults(t *testing.T) {
	X, y := friedman1(50, 0, 23)
	bag := &Bagging{NewBase: func() Regressor { return NewDecisionTree(TreeConfig{}) }}
	if err := bag.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if bag.NumModels() != 10 {
		t.Errorf("default N = %d models, want 10", bag.NumModels())
	}
}

func TestBaggingRequiresBase(t *testing.T) {
	bag := &Bagging{}
	if err := bag.Fit([][]float64{{1}}, []float64{1}); err == nil {
		t.Error("expected error without NewBase")
	}
}

func TestBaggingPredictBeforeFitPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	(&Bagging{NewBase: func() Regressor { return &KNN{} }}).Predict([]float64{1})
}

func TestBaggingSampleFrac(t *testing.T) {
	X, y := friedman1(100, 0, 24)
	bag := &Bagging{
		NewBase:    func() Regressor { return NewDecisionTree(TreeConfig{}) },
		N:          5,
		SampleFrac: 0.5,
		Seed:       1,
	}
	if err := bag.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	p := bag.Predict(X[0])
	if math.IsNaN(p) {
		t.Error("prediction is NaN")
	}
}

func TestStackingImprovesOverWeakBase(t *testing.T) {
	// A linear meta model over a shallow tree + knn base should beat the
	// shallow tree alone on a smooth surface.
	trainX, trainY := friedman1(400, 0.5, 25)
	testX, testY := friedman1(300, 0, 26)

	shallow := func() Regressor { return NewDecisionTree(TreeConfig{MaxDepth: 3, Seed: 1}) }
	st := &Stacking{
		NewBases:    []func() Regressor{shallow, func() Regressor { return &KNN{K: 5} }},
		NewMeta:     func() Regressor { return &LinearRegression{} },
		PassThrough: true,
		KFold:       5,
		Seed:        3,
	}
	if err := st.Fit(trainX, trainY); err != nil {
		t.Fatal(err)
	}
	base := shallow()
	if err := base.Fit(trainX, trainY); err != nil {
		t.Fatal(err)
	}
	stErr := RMSE(testY, predictAll(t, st, testX))
	baseErr := RMSE(testY, predictAll(t, base, testX))
	if stErr >= baseErr {
		t.Errorf("stacking RMSE %v should beat shallow tree %v", stErr, baseErr)
	}
}

func TestStackingWithoutPassThrough(t *testing.T) {
	X, y := friedman1(200, 0.5, 27)
	st := &Stacking{
		NewBases: []func() Regressor{func() Regressor { return NewExtraTrees(10, 1) }},
		NewMeta:  func() Regressor { return &LinearRegression{} },
	}
	if err := st.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	// Meta over a good base without pass-through is roughly the base.
	if r2 := R2(y, predictAll(t, st, X)); r2 < 0.8 {
		t.Errorf("stack R2 = %v, want >= 0.8", r2)
	}
}

func TestStackingValidation(t *testing.T) {
	st := &Stacking{}
	if err := st.Fit([][]float64{{1}}, []float64{1}); err == nil {
		t.Error("expected error with no bases")
	}
	st = &Stacking{NewBases: []func() Regressor{func() Regressor { return &KNN{} }}}
	if err := st.Fit([][]float64{{1}}, []float64{1}); err == nil {
		t.Error("expected error with no meta")
	}
}

func TestStackingPredictBeforeFitPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	(&Stacking{}).Predict([]float64{1})
}
