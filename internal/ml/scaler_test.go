package ml

import (
	"math"
	"math/rand"
	"testing"
)

// scaleRows is the row-major reference of what a pipeline's scaler
// does: each column's mean and standard deviation folded over the rows
// in order (a constant column divides by 1), then every row
// standardised into a new one.
func scaleRows(X [][]float64) [][]float64 {
	p, n := len(X[0]), float64(len(X))
	mean, std := make([]float64, p), make([]float64, p)
	for _, row := range X {
		for j, v := range row {
			mean[j] += v
		}
	}
	for j := range mean {
		mean[j] /= n
	}
	for _, row := range X {
		for j, v := range row {
			d := v - mean[j]
			std[j] += d * d
		}
	}
	for j := range std {
		if std[j] = math.Sqrt(std[j] / n); std[j] == 0 {
			std[j] = 1
		}
	}
	out := make([][]float64, len(X))
	for i, row := range X {
		out[i] = make([]float64, p)
		for j, v := range row {
			out[i][j] = (v - mean[j]) / std[j]
		}
	}
	return out
}

// standardized returns X's column view standardised by a scaler fitted
// on it.
func standardized(X [][]float64) [][]float64 {
	cols := columnView(X)
	var s StandardScaler
	s.standardize(cols)
	return cols
}

func TestScalerZeroMeanUnitVariance(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	X := make([][]float64, 500)
	for i := range X {
		X[i] = []float64{rng.NormFloat64()*10 + 5, rng.Float64() * 1000}
	}
	for j, col := range standardized(X) {
		mean, m2 := 0.0, 0.0
		for _, v := range col {
			mean += v
		}
		mean /= float64(len(col))
		for _, v := range col {
			d := v - mean
			m2 += d * d
		}
		sd := math.Sqrt(m2 / float64(len(col)))
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
	for i, v := range standardized(X)[0] {
		if v != 0 {
			t.Errorf("constant column scaled to %v at row %d, want 0", v, i)
		}
	}
}

// TestScalerErrors: a pipeline refuses to fit its scaler on an empty
// or ragged matrix, and to scale a row before it is fitted or a row of
// another arity.
func TestScalerErrors(t *testing.T) {
	p := &Pipeline{Model: NewExtraTrees(3, 1)}
	if err := p.Fit(nil, nil); err == nil {
		t.Error("expected error on empty fit")
	}
	if err := p.Fit([][]float64{{1, 2}, {1}}, []float64{1, 2}); err == nil {
		t.Error("expected error on ragged fit")
	}
	if p.IsFitted() {
		t.Fatal("a refused fit left the pipeline fitted")
	}
	panics := func(what string, x []float64) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("expected panic on %s", what)
			}
		}()
		p.Predict(x)
	}
	panics("scaling before fit", []float64{1})
	if err := p.Fit([][]float64{{1, 2}, {3, 4}}, []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	panics("arity mismatch", []float64{1})
}

// TestPipelineMatchesManualScaling: a pipeline predicts bit for bit as
// its inner model fitted on rows standardised by the row-major
// reference does.
func TestPipelineMatchesManualScaling(t *testing.T) {
	X, y := friedman1(200, 0, 31)
	pipe := &Pipeline{Model: NewExtraTrees(20, 4)}
	if err := pipe.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	scaled := scaleRows(X)
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
