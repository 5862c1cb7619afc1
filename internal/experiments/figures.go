package experiments

import (
	"context"
	"fmt"
	"io"

	"lam/internal/dataset"
	"lam/internal/hybrid"
	"lam/internal/lamerr"
	"lam/internal/machine"
	"lam/internal/parallel"
)

// Options configures a figure run.
type Options struct {
	// Machine is the simulated platform; nil means BlueWatersXE6 (the
	// paper's testbed).
	Machine *machine.Machine
	// Seed fixes both the simulator noise stream and the sampling.
	Seed int64
	// Reps is the number of training-set redraws per fraction; 0 means 7.
	Reps int
	// Trees is the forest size; 0 means 100.
	Trees int
	// Workers bounds the sweep-level trial parallelism (and is passed
	// to hybrid training); values <= 0 mean GOMAXPROCS, 1 forces
	// sequential sweeps. Every figure is bit-identical for every worker
	// count.
	Workers int
}

func (o Options) normalized() Options {
	if o.Machine == nil {
		o.Machine = machine.BlueWatersXE6()
	}
	if o.Reps <= 0 {
		o.Reps = 7
	}
	if o.Trees <= 0 {
		o.Trees = 100
	}
	return o
}

// Report is one regenerated figure: its series plus free-form notes
// (e.g. the standalone analytical-model MAPE the paper quotes).
type Report struct {
	ID    string
	Title string
	// DatasetSize is the full configuration-space size.
	DatasetSize int
	Series      []Series
	Notes       []string
}

// Render writes the report as an aligned text table.
func (r *Report) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", r.ID, r.Title); err != nil {
		return err
	}
	fmt.Fprintf(w, "dataset: %d configurations\n", r.DatasetSize)
	for _, n := range r.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	for _, s := range r.Series {
		fmt.Fprintf(w, "\n%s (%d repetitions per point)\n", s.Label, s.Reps)
		fmt.Fprintf(w, "  %10s  %12s  %10s  %12s\n", "train", "mean MAPE%", "std", "median MAPE%")
		for i := range s.Fractions {
			fmt.Fprintf(w, "  %9.1f%%  %12.2f  %10.2f  %12.2f\n",
				s.Fractions[i]*100, s.MeanMAPE[i], s.StdMAPE[i], s.MedianMAPE[i])
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// fig3Stencil regenerates Fig. 3(A): MAPE of decision trees, extra
// trees and random forests on the stencil blocking dataset at training
// fractions {1, 2, 4, 6, 10}%.
func fig3Stencil(ctx context.Context, opts Options) (*Report, error) {
	o := opts.normalized()
	ds, _, err := canonical("stencil-blocking", o)
	if err != nil {
		return nil, err
	}
	fractions := []float64{0.01, 0.02, 0.04, 0.06, 0.10}
	r := &Report{
		ID:          "fig3a",
		Title:       "pure-ML model comparison, stencil (X = I,J,K,bi,bj,bk)",
		DatasetSize: ds.Len(),
	}
	for _, kind := range []struct{ key, label string }{
		{"dt", "Decision Trees"}, {"et", "Extra Trees"}, {"rf", "Random Forests"},
	} {
		s, err := MAPECurveCtx(ctx, ds, MLTrainable(DefaultPipeline(kind.key, o.Trees)),
			fractions, o.Reps, o.Seed, kind.label, o.Workers)
		if err != nil {
			return nil, err
		}
		r.Series = append(r.Series, s)
	}
	return r, nil
}

// fig3FMM regenerates Fig. 3(B): the same three models on the FMM
// dataset at training fractions {10, 20, 40, 60, 80}%.
func fig3FMM(ctx context.Context, opts Options) (*Report, error) {
	o := opts.normalized()
	ds, _, err := canonical("fmm", o)
	if err != nil {
		return nil, err
	}
	fractions := []float64{0.10, 0.20, 0.40, 0.60, 0.80}
	r := &Report{
		ID:          "fig3b",
		Title:       "pure-ML model comparison, FMM (X = t,N,q,k)",
		DatasetSize: ds.Len(),
	}
	for _, kind := range []struct{ key, label string }{
		{"dt", "Decision Trees"}, {"et", "Extra Trees"}, {"rf", "Random Forests"},
	} {
		s, err := MAPECurveCtx(ctx, ds, MLTrainable(DefaultPipeline(kind.key, o.Trees)),
			fractions, o.Reps, o.Seed, kind.label, o.Workers)
		if err != nil {
			return nil, err
		}
		r.Series = append(r.Series, s)
	}
	return r, nil
}

// hybridVsET builds the standard two-panel comparison the paper uses in
// Figs. 5–8: extra trees at the larger fractions, the hybrid model at
// the smaller ones, plus the standalone AM MAPE as a note.
func hybridVsET(ctx context.Context, id, title string, ds *dataset.Dataset, am hybrid.AnalyticalModel,
	etFractions, hyFractions []float64, cfg hybrid.Config, o Options) (*Report, error) {
	r := &Report{ID: id, Title: title, DatasetSize: ds.Len()}

	amMAPE, err := hybrid.AnalyticalMAPECtx(ctx, ds, am)
	if err != nil {
		return nil, err
	}
	r.Notes = append(r.Notes,
		fmt.Sprintf("standalone analytical model MAPE = %.1f%% (untuned)", amMAPE))

	et, err := MAPECurveCtx(ctx, ds, MLTrainable(DefaultPipeline("et", o.Trees)),
		etFractions, o.Reps, o.Seed, "Extra Trees (pure ML)", o.Workers)
	if err != nil {
		return nil, err
	}
	r.Series = append(r.Series, et)

	cfg.Workers = o.Workers
	hy, err := MAPECurveCtx(ctx, ds, HybridTrainable(am, cfg),
		hyFractions, o.Reps, o.Seed, "Hybrid Model", o.Workers)
	if err != nil {
		return nil, err
	}
	r.Series = append(r.Series, hy)
	return r, nil
}

// fig5 regenerates Fig. 5: grid-size-only stencil dataset, where the
// analytical model is accurate. Extra trees at {10, 15, 20}%, hybrid at
// {1, 2, 4}%; stacking only, with aggregation disabled like every other
// figure (the golden pins this). The paper's case for aggregating here
// is ROADMAP item 3's to rule on; BenchmarkAblationAggregation measures
// both variants.
func fig5(ctx context.Context, opts Options) (*Report, error) {
	o := opts.normalized()
	ds, am, err := canonical("stencil-grid", o)
	if err != nil {
		return nil, err
	}
	return hybridVsET(ctx, "fig5",
		"stencil, grid sizes only (accurate AM); hybrid needs 5-10x less data",
		ds, am,
		[]float64{0.10, 0.15, 0.20}, []float64{0.01, 0.02, 0.04},
		hybrid.Config{Aggregate: false}, o)
}

// fig6 regenerates Fig. 6: grid sizes + loop blocking with the untuned
// blocking AM (paper: AM MAPE = 42%); both models at {1, 2, 4}%.
func fig6(ctx context.Context, opts Options) (*Report, error) {
	o := opts.normalized()
	ds, am, err := canonical("stencil-blocking", o)
	if err != nil {
		return nil, err
	}
	return hybridVsET(ctx, "fig6",
		"stencil, grid sizes + loop blocking (inaccurate AM)",
		ds, am,
		[]float64{0.01, 0.02, 0.04}, []float64{0.01, 0.02, 0.04},
		hybrid.Config{Aggregate: false}, o)
}

// fig7 regenerates Fig. 7: multithreaded stencil with the serial AM.
// Aggregation is disabled, as in the paper ("we do not aggregate ...
// as the analytical models do not capture the parallelism").
func fig7(ctx context.Context, opts Options) (*Report, error) {
	o := opts.normalized()
	ds, am, err := canonical("stencil-threads", o)
	if err != nil {
		return nil, err
	}
	return hybridVsET(ctx, "fig7",
		"stencil, multithreaded (serial AM, stacking only)",
		ds, am,
		[]float64{0.01, 0.02, 0.04}, []float64{0.01, 0.02, 0.04},
		hybrid.Config{Aggregate: false}, o)
}

// fig8 regenerates Fig. 8: the FMM workload with the untuned
// single-core AM (paper: AM MAPE = 84.5%); extra trees and hybrid at
// {15, 20, 25}%.
func fig8(ctx context.Context, opts Options) (*Report, error) {
	o := opts.normalized()
	ds, am, err := canonical("fmm", o)
	if err != nil {
		return nil, err
	}
	return hybridVsET(ctx, "fig8",
		"FMM, X = (t,N,q,k) (highly inaccurate AM, stacking only)",
		ds, am,
		[]float64{0.15, 0.20, 0.25}, []float64{0.15, 0.20, 0.25},
		hybrid.Config{Aggregate: false}, o)
}

// RunCtx regenerates one figure by id — fig3a, fig3b, fig5, fig6, fig7
// or fig8 — with prompt cancellation between the figure's (fraction,
// repetition) trials; an unknown id wraps lamerr.ErrUnknownFigure.
func RunCtx(ctx context.Context, id string, opts Options) (*Report, error) {
	switch id {
	case "fig3a", "3a":
		return fig3Stencil(ctx, opts)
	case "fig3b", "3b":
		return fig3FMM(ctx, opts)
	case "fig5", "5":
		return fig5(ctx, opts)
	case "fig6", "6":
		return fig6(ctx, opts)
	case "fig7", "7":
		return fig7(ctx, opts)
	case "fig8", "8":
		return fig8(ctx, opts)
	default:
		return nil, fmt.Errorf("experiments: %w: %q (have %v, see EXPERIMENTS.md)",
			lamerr.ErrUnknownFigure, id, AllFigureIDs())
	}
}

// AllFigureIDs lists the reproducible figures in paper order.
func AllFigureIDs() []string {
	return []string{"fig3a", "fig3b", "fig5", "fig6", "fig7", "fig8"}
}

// RunManyCtx regenerates several figures concurrently on the worker
// pool and returns the reports in input order. Each figure is itself
// deterministic, so the batch matches len(ids) sequential RunCtx calls.
// The context is threaded into every figure's trial sweep, so one
// cancel stops the whole batch within a trial's duration.
func RunManyCtx(ctx context.Context, ids []string, opts Options) ([]*Report, error) {
	return parallel.MapCtx(ctx, len(ids), opts.Workers, func(i int) (*Report, error) {
		r, err := RunCtx(ctx, ids[i], opts)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", ids[i], err)
		}
		return r, nil
	})
}
