package ml

import (
	"context"
	"errors"
	"math/rand"

	"lam/internal/parallel"
)

// Stacking is Wolpert's stacked-generalization meta-estimator: the
// predictions of the base models become input features for a meta
// model. With KFold > 1 the meta features are produced out-of-fold,
// which avoids training-set leakage; with KFold <= 1 the base models
// simply refit on the full set (cheaper, adequate for low-variance
// bases).
//
// The hybrid model in internal/hybrid is a special case of stacking in
// which one "base model" is the closed-form analytical model — there the
// augmentation is done directly since the analytical model needs no
// fitting. This generic estimator exists for ensembling fitted models
// and for the ablation studies.
type Stacking struct {
	// NewBases construct the untrained base models. Required, non-empty.
	NewBases []func() Regressor
	// NewMeta constructs the untrained meta model. Required.
	NewMeta func() Regressor
	// PassThrough includes the original features alongside the base
	// predictions in the meta model's input (the paper's hybrid always
	// passes the original features through).
	PassThrough bool
	// KFold > 1 enables out-of-fold meta-feature generation.
	KFold int
	// Seed drives fold shuffling.
	Seed int64
	// Workers bounds fitting parallelism across the independent
	// (fold, base) training units; values <= 0 mean GOMAXPROCS. The
	// factories in NewBases must be safe to call
	// concurrently. Results are bit-identical for every worker count.
	Workers int

	bases []Regressor
	meta  Regressor
}

// Fit trains the stack.
func (s *Stacking) Fit(X [][]float64, y []float64) error {
	return s.FitCtx(context.Background(), X, y)
}

// FitCtx is Fit with prompt cancellation between the independent
// (fold, base) training units; once ctx is done the fit returns a
// typed cancellation error without mutating the receiver.
func (s *Stacking) FitCtx(ctx context.Context, X [][]float64, y []float64) error {
	if len(s.NewBases) == 0 {
		return errors.New("ml: Stacking requires at least one base model")
	}
	if s.NewMeta == nil {
		return errors.New("ml: Stacking requires a meta model")
	}
	if _, err := checkXY(X, y); err != nil {
		return err
	}
	n := len(X)
	nb := len(s.NewBases)

	// metaFeat[i] collects the base-model predictions for sample i.
	metaFeat := make([][]float64, n)
	for i := range metaFeat {
		metaFeat[i] = make([]float64, nb)
	}

	if s.KFold > 1 && s.KFold <= n {
		folds := KFoldIndices(n, s.KFold, rand.New(rand.NewSource(s.Seed)))
		// Materialise every fold's training set up front, then fan the
		// independent (fold, base) units out on the worker pool. The
		// folds partition the samples, so each unit writes a disjoint
		// set of metaFeat cells.
		trainXs := make([][][]float64, len(folds))
		trainYs := make([][]float64, len(folds))
		for f, fold := range folds {
			inFold := make(map[int]bool, len(fold))
			for _, i := range fold {
				inFold[i] = true
			}
			trainX := make([][]float64, 0, n-len(fold))
			trainY := make([]float64, 0, n-len(fold))
			for i := 0; i < n; i++ {
				if !inFold[i] {
					trainX = append(trainX, X[i])
					trainY = append(trainY, y[i])
				}
			}
			trainXs[f], trainYs[f] = trainX, trainY
		}
		units := len(folds) * nb
		if err := parallel.ForCtx(ctx, units, s.Workers, func(u int) error {
			f, b := u/nb, u%nb
			m := s.NewBases[b]()
			if err := m.Fit(trainXs[f], trainYs[f]); err != nil {
				return err
			}
			for _, i := range folds[f] {
				metaFeat[i][b] = m.Predict(X[i])
			}
			return nil
		}); err != nil {
			return err
		}
	} else {
		if err := parallel.ForCtx(ctx, nb, s.Workers, func(b int) error {
			m := s.NewBases[b]()
			if err := m.Fit(X, y); err != nil {
				return err
			}
			for i := 0; i < n; i++ {
				metaFeat[i][b] = m.Predict(X[i])
			}
			return nil
		}); err != nil {
			return err
		}
	}

	// Final base models are always refit on the full training set; they
	// produce the meta features at prediction time.
	bases := make([]Regressor, nb)
	if err := parallel.ForCtx(ctx, nb, s.Workers, func(b int) error {
		m := s.NewBases[b]()
		if err := m.Fit(X, y); err != nil {
			return err
		}
		bases[b] = m
		return nil
	}); err != nil {
		return err
	}

	metaX := make([][]float64, n)
	for i := 0; i < n; i++ {
		metaX[i] = s.assemble(X[i], metaFeat[i])
	}
	meta := s.NewMeta()
	if err := FitCtx(ctx, meta, metaX, y); err != nil {
		return err
	}
	s.bases = bases
	s.meta = meta
	return nil
}

// IsFitted reports whether the stack has been trained.
func (s *Stacking) IsFitted() bool { return s.meta != nil }

// NumFeatures returns the original feature arity the stack was fitted
// on (the base models' input, not the meta model's augmented vector);
// 0 before Fit, or when the base models do not expose theirs.
func (s *Stacking) NumFeatures() int {
	if len(s.bases) == 0 {
		return 0
	}
	n, _ := NumFeaturesOf(s.bases[0])
	return n
}

// assemble builds the meta model's input for one sample.
func (s *Stacking) assemble(x, preds []float64) []float64 {
	if !s.PassThrough {
		return copyVector(preds)
	}
	out := make([]float64, 0, len(x)+len(preds))
	out = append(out, x...)
	return append(out, preds...)
}

// Predict runs the base models and feeds their outputs to the meta
// model. The meta input vector is assembled in pooled scratch — the
// same layout assemble produced at fit time — so the call is
// allocation-free in steady state.
func (s *Stacking) Predict(x []float64) float64 {
	if s.meta == nil {
		panic("ml: Stacking.Predict called before Fit")
	}
	nb := len(s.bases)
	skip := 0
	if s.PassThrough {
		skip = len(x)
	}
	buf := GetScratch(skip + nb)
	defer PutScratch(buf)
	meta := *buf
	copy(meta, x[:skip])
	for i, b := range s.bases {
		meta[skip+i] = b.Predict(x)
	}
	return s.meta.Predict(meta)
}

// predictBatchIntoSeq implements the compiled plane's sequential block
// contract as a block → block transform: up to batchBlock rows at a
// time, the pooled meta block (the layout assemble produced at fit
// time) is filled column by column from each base model's batch walk,
// then batch-scored by the meta model. Every base and the meta model
// see the rows Predict would have shown them, so the result is
// bit-identical to a per-row loop.
func (s *Stacking) predictBatchIntoSeq(X [][]float64, out []float64) {
	skip := 0
	if s.PassThrough && len(X) > 0 {
		skip = len(X[0])
	}
	for lo := 0; lo < len(X); lo += batchBlock {
		hi := min(lo+batchBlock, len(X))
		rows, col := X[lo:hi], out[lo:hi]
		blk := getRowBlock(len(rows), skip+len(s.bases))
		for i, x := range rows {
			copy(blk.rows[i], x[:skip])
		}
		// out's own block is the column scratch: the meta walk
		// overwrites it last, after every base column has been copied
		// out of it.
		for b, base := range s.bases {
			predictSeq(base, rows, col)
			for i, v := range col {
				blk.rows[i][skip+b] = v
			}
		}
		predictSeq(s.meta, blk.rows, col)
		putRowBlock(blk)
	}
}
