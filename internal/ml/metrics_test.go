package ml

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMAPE(t *testing.T) {
	yt := []float64{100, 200}
	yp := []float64{110, 180}
	// APEs: 10%, 10% -> MAPE 10.
	if got := MAPE(yt, yp); math.Abs(got-10) > 1e-12 {
		t.Errorf("MAPE = %v, want 10", got)
	}
}

func TestMAPEPerfect(t *testing.T) {
	y := []float64{1, 2, 3}
	if got := MAPE(y, y); got != 0 {
		t.Errorf("MAPE of perfect prediction = %v, want 0", got)
	}
}

func TestMAPESkipsZeroTruth(t *testing.T) {
	yt := []float64{0, 100}
	yp := []float64{5, 150}
	if got := MAPE(yt, yp); math.Abs(got-50) > 1e-12 {
		t.Errorf("MAPE = %v, want 50 (zero-truth sample skipped)", got)
	}
	if got := MAPE([]float64{0}, []float64{1}); got != 0 {
		t.Errorf("MAPE with only zero truth = %v, want 0", got)
	}
}

func TestRMSE(t *testing.T) {
	want := math.Sqrt((1.0 + 0 + 4) / 3)
	if got := RMSE([]float64{1, 2, 3}, []float64{2, 2, 5}); math.Abs(got-want) > 1e-12 {
		t.Errorf("RMSE = %v, want %v", got, want)
	}
}

func TestR2(t *testing.T) {
	yt := []float64{1, 2, 3, 4}
	if got := R2(yt, yt); got != 1 {
		t.Errorf("R2 perfect = %v, want 1", got)
	}
	mean := []float64{2.5, 2.5, 2.5, 2.5}
	if got := R2(yt, mean); math.Abs(got) > 1e-12 {
		t.Errorf("R2 of mean predictor = %v, want 0", got)
	}
	if got := R2([]float64{5, 5}, []float64{5, 5}); got != 1 {
		t.Errorf("R2 constant-exact = %v, want 1", got)
	}
	if got := R2([]float64{5, 5}, []float64{4, 6}); got != 0 {
		t.Errorf("R2 constant-inexact = %v, want 0", got)
	}
}

func TestMetricsEmpty(t *testing.T) {
	if RMSE(nil, nil) != 0 || R2(nil, nil) != 0 || MAPE(nil, nil) != 0 {
		t.Error("metrics on empty slices should be 0")
	}
}

func TestMetricsLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	MAPE([]float64{1}, []float64{1, 2})
}

func TestMAPEScaleInvarianceProperty(t *testing.T) {
	// MAPE is invariant under multiplying truth and prediction by the
	// same positive constant.
	f := func(seed int64, scaleRaw float64) bool {
		scale := 0.1 + math.Abs(math.Mod(scaleRaw, 100))
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(30)
		yt := make([]float64, n)
		yp := make([]float64, n)
		yts := make([]float64, n)
		yps := make([]float64, n)
		for i := range yt {
			yt[i] = 0.1 + rng.Float64()*10
			yp[i] = 0.1 + rng.Float64()*10
			yts[i] = yt[i] * scale
			yps[i] = yp[i] * scale
		}
		return math.Abs(MAPE(yt, yp)-MAPE(yts, yps)) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// RMSE is the root mean squared error: the quality tests' error scale.
func RMSE(yTrue, yPred []float64) float64 {
	checkSameLen(yTrue, yPred)
	if len(yTrue) == 0 {
		return 0
	}
	s := 0.0
	for i := range yTrue {
		d := yPred[i] - yTrue[i]
		s += d * d
	}
	return math.Sqrt(s / float64(len(yTrue)))
}

// R2 is the coefficient of determination. A constant-truth vector
// yields R2 = 0 by convention unless predictions are exact.
func R2(yTrue, yPred []float64) float64 {
	checkSameLen(yTrue, yPred)
	if len(yTrue) == 0 {
		return 0
	}
	mean := 0.0
	for _, v := range yTrue {
		mean += v
	}
	mean /= float64(len(yTrue))
	ssRes, ssTot := 0.0, 0.0
	for i := range yTrue {
		d := yTrue[i] - yPred[i]
		ssRes += d * d
		m := yTrue[i] - mean
		ssTot += m * m
	}
	if ssTot == 0 {
		if ssRes == 0 {
			return 1
		}
		return 0
	}
	return 1 - ssRes/ssTot
}
