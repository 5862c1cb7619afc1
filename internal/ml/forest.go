package ml

import (
	"context"
	"fmt"

	"lam/internal/parallel"
	"lam/internal/xmath"
)

// Forest is an ensemble of regression trees averaged at prediction time.
// Configured one way it is a random forest (bootstrap + best splits),
// configured another it is extra trees (full sample + random splits).
// Use NewRandomForest / NewExtraTrees for the two canonical presets.
type Forest struct {
	// NTrees is the ensemble size; values below 1 are treated as 100
	// (the scikit-learn default the paper inherits).
	NTrees int
	// Tree configures every member tree; the per-tree Seed field is
	// overwritten with a value derived from Seed and the tree index.
	Tree TreeConfig
	// Bootstrap draws each tree's training set with replacement.
	Bootstrap bool
	// Seed drives bootstrap sampling and per-tree randomness.
	Seed int64
	// Workers bounds fitting parallelism; values <= 0 mean GOMAXPROCS.
	// The fitted ensemble is bit-identical for every worker count.
	// Batch prediction takes its worker count per call
	// (PredictBatchIntoCtx).
	Workers int

	trees     []*DecisionTree
	compiled  *CompiledEnsemble
	nFeatures int
}

// NewRandomForest returns a Breiman random forest: bootstrap resampling
// and exact CART splits over all features (the scikit-learn regression
// default of max_features = n_features).
func NewRandomForest(nTrees int, seed int64) *Forest {
	return &Forest{
		NTrees:    nTrees,
		Tree:      TreeConfig{Splitter: BestSplitter},
		Bootstrap: true,
		Seed:      seed,
	}
}

// NewExtraTrees returns an extremely randomized trees ensemble: each
// tree sees the full training set and splits on random thresholds. This
// is the best-performing pure-ML model in the paper (Fig. 3) and the ML
// component of the hybrid model.
func NewExtraTrees(nTrees int, seed int64) *Forest {
	return &Forest{
		NTrees:    nTrees,
		Tree:      TreeConfig{Splitter: RandomSplitter},
		Bootstrap: false,
		Seed:      seed,
	}
}

// Fit grows the ensemble. Trees are grown concurrently but the result is
// independent of scheduling: every tree's randomness derives only from
// (Seed, tree index).
func (f *Forest) Fit(X [][]float64, y []float64) error {
	return f.FitCtx(context.Background(), X, y)
}

// FitCtx is Fit with prompt cancellation between trees: once ctx is
// done no further tree starts growing and the fit returns a typed
// cancellation error (wrapping lamerr.ErrCancelled and ctx.Err())
// without mutating the receiver. Every tree grows straight into its
// slot of the ensemble's walk table (see growth).
func (f *Forest) FitCtx(ctx context.Context, X [][]float64, y []float64) error {
	if _, err := checkXY(X, y); err != nil {
		return err
	}
	return f.fitColumns(ctx, columnView(X), y, nil)
}

// fitColumns is FitCtx over a column view, with its memory borrowed on
// l (see leasedFitter).
func (f *Forest) fitColumns(ctx context.Context, cols [][]float64, y []float64, l *lease) error {
	n, p := len(cols[0]), len(cols)
	nTrees := f.NTrees
	if nTrees < 1 {
		nTrees = 100
	}
	// Every tree's randomness derives only from (Seed, t), so the
	// worker pool cannot perturb the fitted ensemble.
	bootSeed := func(t int) int64 { return int64(xmath.Hash64(uint64(f.Seed), uint64(t), 0x626f6f74)) }
	class, order := l.rowScratch(n)
	distinct := rowClasses(cols, class, order)
	bounds, slab, trees := l.members(nTrees)
	imps := l.importances(nTrees * p)
	for t := range bounds {
		bounds[t] = f.Tree.maxNodes(n, distinct)
	}
	if f.Bootstrap {
		// A bootstrap draws about 63% of the rows, which bounds its tree
		// far tighter than all of them do; the draw is repeated to grow.
		err := parallel.ForCtx(ctx, nTrees, f.Workers, func(t int) error {
			b := l.builder()
			defer l.putBuilder(b)
			b.sampleBootstrap(bootSeed(t), n)
			bounds[t] = f.Tree.maxNodes(n, b.distinct(class))
			return nil
		})
		if err != nil {
			return err
		}
	}
	g, err := newGrowth(bounds, l)
	if err != nil {
		return err
	}
	err = parallel.ForCtx(ctx, nTrees, f.Workers, func(t int) error {
		cfg := f.Tree
		cfg.Seed = int64(xmath.Hash64(uint64(f.Seed), uint64(t), 0x7265657301))

		b := l.builder()
		defer l.putBuilder(b)
		if f.Bootstrap {
			b.sampleBootstrap(bootSeed(t), n)
		} else {
			b.sampleAll(n)
		}
		imp := imps[t*p : (t+1)*p : (t+1)*p]
		g.sizes[t] = b.fit(cfg, cols, y, imp, g.slot(t))
		slab[t] = DecisionTree{Config: cfg, nFeatures: p, importances: imp}
		trees[t] = &slab[t]
		return nil
	})
	if err != nil {
		return err
	}
	f.compiled = g.pack(trees)
	f.trees = trees
	f.nFeatures = p
	return nil
}

// Predict returns the mean prediction of all member trees: one
// allocation-free walk over the compiled ensemble, summed in tree
// order — bit-identical to averaging per-tree Predict calls.
func (f *Forest) Predict(x []float64) float64 {
	if f.compiled == nil {
		panic("ml: Forest.Predict called before Fit")
	}
	if len(x) != f.nFeatures {
		panic(fmt.Sprintf("ml: Forest.Predict got %d features, want %d", len(x), f.nFeatures))
	}
	return f.compiled.Predict(x)
}

// predictBatchIntoSeq implements the compiled plane's sequential
// block contract: one cache-blocked walk over the fused node table.
func (f *Forest) predictBatchIntoSeq(X [][]float64, out []float64) {
	f.compiled.PredictBatchInto(X, out)
}

// unfit drops the fitted ensemble (see leasedFitter).
func (f *Forest) unfit() { f.trees, f.compiled, f.nFeatures = nil, nil, 0 }

// IsFitted reports whether the ensemble has been trained.
func (f *Forest) IsFitted() bool { return len(f.trees) > 0 }

// NumFeatures returns the feature arity the ensemble was fitted on (0
// before Fit).
func (f *Forest) NumFeatures() int { return f.nFeatures }
