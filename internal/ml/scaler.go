package ml

import (
	"context"
	"errors"
	"fmt"
	"math"
)

// StandardScaler standardises features to zero mean and unit variance —
// the preprocessing the paper applies before every scikit-learn
// estimator (Section V). Constant columns keep their mean removed and a
// unit divisor, matching scikit-learn's behaviour.
type StandardScaler struct {
	mean []float64
	std  []float64
}

// standardize fits the scaler on the rows of a column view and
// standardises the view in place. Each column's mean and standard
// deviation fold its values in row order.
func (s *StandardScaler) standardize(cols [][]float64) {
	n := float64(len(cols[0]))
	s.mean, s.std = make([]float64, len(cols)), make([]float64, len(cols))
	for j, col := range cols {
		for _, v := range col {
			s.mean[j] += v
		}
		s.mean[j] /= n
		for _, v := range col {
			d := v - s.mean[j]
			s.std[j] += d * d
		}
		s.std[j] = math.Sqrt(s.std[j] / n)
		if s.std[j] == 0 {
			s.std[j] = 1
		}
		for i, v := range col {
			col[i] = (v - s.mean[j]) / s.std[j]
		}
	}
}

// rowView transposes a column view back into rows.
func rowView(cols [][]float64) [][]float64 {
	rows := make([][]float64, len(cols[0]))
	for i := range rows {
		rows[i] = make([]float64, len(cols))
		for j, col := range cols {
			rows[i][j] = col[i]
		}
	}
	return rows
}

// Pipeline standardises features before delegating to an inner model,
// reproducing the paper's scaler-then-estimator composition. It
// implements Regressor.
type Pipeline struct {
	// Model is the inner estimator. Required.
	Model Regressor

	scaler StandardScaler
	fitted bool
}

// Fit standardises X and fits the inner model on the scaled features.
func (p *Pipeline) Fit(X [][]float64, y []float64) error {
	return p.FitCtx(context.Background(), X, y)
}

// FitCtx is Fit with the context forwarded to the inner model's fit
// when it supports cancellation (see ContextFitter). The scaler is
// staged locally and only assigned once the inner fit succeeds, so a
// cancelled or failed refit of an already-fitted pipeline leaves the
// previous (consistent) state untouched.
func (p *Pipeline) FitCtx(ctx context.Context, X [][]float64, y []float64) error {
	if _, err := checkXY(X, y); err != nil {
		return err
	}
	return p.fitColumns(ctx, columnView(X), y, nil)
}

// fitColumns is FitCtx over a column view, which it standardises in
// place, with the inner model's memory borrowed on l (see
// leasedFitter). An inner estimator of this package fits on the
// standardised view itself; any other regressor fits on its rows.
func (p *Pipeline) fitColumns(ctx context.Context, cols [][]float64, y []float64, l *lease) error {
	if p.Model == nil {
		return errors.New("ml: Pipeline requires a Model")
	}
	var scaler StandardScaler
	scaler.standardize(cols)
	var err error
	if lf, ok := p.Model.(leasedFitter); ok {
		err = lf.fitColumns(ctx, cols, y, l)
	} else {
		err = FitCtx(ctx, p.Model, rowView(cols), y)
	}
	if err != nil {
		return err
	}
	p.scaler = scaler
	p.fitted = true
	return nil
}

// unfit drops the fitted scaler and the inner model's fit (see
// leasedFitter).
func (p *Pipeline) unfit() {
	if lf, ok := p.Model.(leasedFitter); ok {
		lf.unfit()
	}
	p.scaler, p.fitted = StandardScaler{}, false
}

// IsFitted reports whether the pipeline has been trained.
func (p *Pipeline) IsFitted() bool { return p.fitted }

// NumFeatures returns the feature arity the pipeline was fitted on (0
// before Fit).
func (p *Pipeline) NumFeatures() int { return len(p.scaler.mean) }

// Predict scales x with the training statistics and delegates. The
// scaled row lives in pooled scratch, so the call is allocation-free
// in steady state while remaining safe for concurrent use.
func (p *Pipeline) Predict(x []float64) float64 {
	if !p.fitted {
		panic("ml: Pipeline.Predict called before Fit")
	}
	if len(x) != len(p.scaler.mean) {
		panic(fmt.Sprintf("ml: Pipeline.Predict got %d features, want %d", len(x), len(p.scaler.mean)))
	}
	buf := GetScratch(len(x))
	defer PutScratch(buf)
	p.scaler.transformInto(x, *buf)
	return p.Model.Predict(*buf)
}

// transformInto standardises x into dst (same arithmetic as
// standardize, no allocation). Caller guarantees matching arities.
func (s *StandardScaler) transformInto(x, dst []float64) {
	for j, v := range x {
		dst[j] = (v - s.mean[j]) / s.std[j]
	}
}

// predictBatchIntoSeq implements the compiled plane's sequential block
// contract as a block → block transform: up to BatchBlock rows at a
// time are standardised into a pooled rowBlock and handed to the inner
// model's own batch walk (predictSeq), so a wrapped ensemble is scored
// by the tree-major kernel exactly as a bare one is. The scaling
// arithmetic and the inner walk's fold order are those of Predict, so
// the result is bit-identical to a per-row loop.
func (p *Pipeline) predictBatchIntoSeq(X [][]float64, out []float64) {
	for lo := 0; lo < len(X); lo += BatchBlock {
		hi := min(lo+BatchBlock, len(X))
		blk := getRowBlock(hi-lo, len(p.scaler.mean))
		for i, x := range X[lo:hi] {
			p.scaler.transformInto(x, blk.rows[i])
		}
		predictSeq(p.Model, blk.rows, out[lo:hi])
		putRowBlock(blk)
	}
}
