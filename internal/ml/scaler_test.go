package ml

import (
	"math"
	"math/rand"
	"testing"
)

func TestScalerZeroMeanUnitVariance(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	X := make([][]float64, 500)
	for i := range X {
		X[i] = []float64{rng.NormFloat64()*10 + 5, rng.Float64() * 1000}
	}
	var s StandardScaler
	scaled, err := s.FitTransform(X)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 2; j++ {
		mean, m2 := 0.0, 0.0
		for _, row := range scaled {
			mean += row[j]
		}
		mean /= float64(len(scaled))
		for _, row := range scaled {
			d := row[j] - mean
			m2 += d * d
		}
		sd := math.Sqrt(m2 / float64(len(scaled)))
		if math.Abs(mean) > 1e-9 {
			t.Errorf("column %d mean = %v, want 0", j, mean)
		}
		if math.Abs(sd-1) > 1e-9 {
			t.Errorf("column %d std = %v, want 1", j, sd)
		}
	}
}

func TestScalerConstantColumn(t *testing.T) {
	X := [][]float64{{5, 1}, {5, 2}, {5, 3}}
	var s StandardScaler
	scaled, err := s.FitTransform(X)
	if err != nil {
		t.Fatal(err)
	}
	for i := range scaled {
		if scaled[i][0] != 0 {
			t.Errorf("constant column scaled to %v, want 0", scaled[i][0])
		}
	}
}

func TestScalerErrors(t *testing.T) {
	var s StandardScaler
	if err := s.Fit(nil); err == nil {
		t.Error("expected error on empty fit")
	}
	if _, err := s.Transform([][]float64{{1}}); err == nil {
		t.Error("expected error on transform before fit")
	}
	if err := s.Fit([][]float64{{1, 2}, {1}}); err == nil {
		t.Error("expected error on ragged fit")
	}
	if err := s.Fit([][]float64{{1, 2}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Transform([][]float64{{1}}); err == nil {
		t.Error("expected arity error on transform")
	}
}

func TestPipelineMatchesManualScaling(t *testing.T) {
	X, y := friedman1(200, 0, 31)
	pipe := &Pipeline{Model: NewExtraTrees(20, 4)}
	if err := pipe.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	var s StandardScaler
	scaled, err := s.FitTransform(X)
	if err != nil {
		t.Fatal(err)
	}
	manual := NewExtraTrees(20, 4)
	if err := manual.Fit(scaled, y); err != nil {
		t.Fatal(err)
	}
	for i, row := range scaled[:20] {
		if got, want := pipe.Predict(X[i]), manual.Predict(row); got != want {
			t.Fatalf("pipeline %v != manual %v", got, want)
		}
	}
}

func TestPipelineValidation(t *testing.T) {
	p := &Pipeline{}
	if err := p.Fit([][]float64{{1}}, []float64{1}); err == nil {
		t.Error("expected error without Model")
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic predicting before fit")
		}
	}()
	(&Pipeline{Model: NewExtraTrees(3, 1)}).Predict([]float64{1})
}
