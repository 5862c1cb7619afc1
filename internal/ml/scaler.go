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

// Fit learns per-column means and standard deviations.
func (s *StandardScaler) Fit(X [][]float64) error {
	if len(X) == 0 {
		return errors.New("ml: StandardScaler.Fit on empty matrix")
	}
	p := len(X[0])
	s.mean = make([]float64, p)
	s.std = make([]float64, p)
	n := float64(len(X))
	for _, row := range X {
		if len(row) != p {
			return fmt.Errorf("ml: StandardScaler.Fit row arity %d, want %d", len(row), p)
		}
		for j, v := range row {
			s.mean[j] += v
		}
	}
	for j := range s.mean {
		s.mean[j] /= n
	}
	for _, row := range X {
		for j, v := range row {
			d := v - s.mean[j]
			s.std[j] += d * d
		}
	}
	for j := range s.std {
		s.std[j] = math.Sqrt(s.std[j] / n)
		if s.std[j] == 0 {
			s.std[j] = 1
		}
	}
	return nil
}

// Transform standardises X into a newly allocated matrix.
func (s *StandardScaler) Transform(X [][]float64) ([][]float64, error) {
	if s.mean == nil {
		return nil, errors.New("ml: StandardScaler.Transform before Fit")
	}
	out := make([][]float64, len(X))
	for i, row := range X {
		if len(row) != len(s.mean) {
			return nil, fmt.Errorf("ml: StandardScaler.Transform row arity %d, want %d", len(row), len(s.mean))
		}
		r := make([]float64, len(row))
		for j, v := range row {
			r[j] = (v - s.mean[j]) / s.std[j]
		}
		out[i] = r
	}
	return out, nil
}

// FitTransform is Fit followed by Transform.
func (s *StandardScaler) FitTransform(X [][]float64) ([][]float64, error) {
	if err := s.Fit(X); err != nil {
		return nil, err
	}
	return s.Transform(X)
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
	return p.fitLeased(ctx, X, y, nil)
}

// fitLeased is FitCtx with the inner model's walk tables taken on l
// (see leasedFitter).
func (p *Pipeline) fitLeased(ctx context.Context, X [][]float64, y []float64, l *lease) error {
	if p.Model == nil {
		return errors.New("ml: Pipeline requires a Model")
	}
	if _, err := checkXY(X, y); err != nil {
		return err
	}
	var scaler StandardScaler
	scaled, err := scaler.FitTransform(X)
	if err != nil {
		return err
	}
	if lf, ok := p.Model.(leasedFitter); ok && l != nil {
		err = lf.fitLeased(ctx, scaled, y, l)
	} else {
		err = FitCtx(ctx, p.Model, scaled, y)
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

// transformInto standardises x into dst (same arithmetic as Transform,
// no allocation). Caller guarantees matching arities.
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
