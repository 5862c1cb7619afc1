package experiments

import (
	"context"
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"lam/internal/hybrid"
	"lam/internal/machine"
	"lam/internal/parallel"
	"lam/internal/perfsim"
)

// Extension experiments beyond the paper's figure set: a measurement-
// noise sensitivity sweep (how robust is the hybrid advantage to run-
// to-run variance?) and the hardware-transfer experiment the paper's
// conclusion motivates but does not plot.

// NoiseSensitivityCtx re-runs the Fig. 6 comparison (blocking dataset,
// 2% training) at several simulator noise levels and reports one series
// per model across noise levels (the Fractions field carries the noise
// level instead of a training fraction). Cancellation is prompt between
// noise levels and between the trials inside each level.
func NoiseSensitivityCtx(ctx context.Context, opts Options, noiseLevels []float64) (*Report, error) {
	o := opts.normalized()
	if len(noiseLevels) == 0 {
		noiseLevels = []float64{0.01, 0.035, 0.08, 0.15}
	}
	r := &Report{
		ID:    "ext-noise",
		Title: "hybrid vs pure ML under increasing measurement noise (blocking dataset, 2% training)",
	}
	et := Series{Label: "Extra Trees (pure ML)", Reps: o.Reps}
	hy := Series{Label: "Hybrid Model", Reps: o.Reps}
	am := Series{Label: "Analytical Model alone", Reps: 1}
	// Each noise level builds its own simulator and dataset, so the
	// levels are fully independent; run them on the worker pool and
	// assemble the series in level order afterwards.
	type levelResult struct {
		etc, hyc Series
		amMAPE   float64
		size     int
	}
	results, err := parallel.MapCtx(ctx, len(noiseLevels), o.Workers, func(li int) (levelResult, error) {
		nl := noiseLevels[li]
		sim := &perfsim.StencilSim{Machine: o.Machine, Seed: uint64(o.Seed), NoiseLevel: nl}
		ds, err := StencilBlockingDataset(sim)
		if err != nil {
			return levelResult{}, err
		}
		amModel := StencilBlockingAM(o.Machine)

		etc, err := MAPECurveCtx(ctx, ds, MLTrainable(DefaultPipeline("et", o.Trees)),
			[]float64{0.02}, o.Reps, o.Seed, "et", o.Workers)
		if err != nil {
			return levelResult{}, err
		}
		hyc, err := MAPECurveCtx(ctx, ds, HybridTrainable(amModel, hybrid.Config{Workers: o.Workers}),
			[]float64{0.02}, o.Reps, o.Seed, "hy", o.Workers)
		if err != nil {
			return levelResult{}, err
		}
		amMAPE, err := hybrid.AnalyticalMAPECtx(ctx, ds, amModel)
		if err != nil {
			return levelResult{}, err
		}
		return levelResult{etc: etc, hyc: hyc, amMAPE: amMAPE, size: ds.Len()}, nil
	})
	if err != nil {
		return nil, err
	}
	for li, res := range results {
		nl := noiseLevels[li]
		r.DatasetSize = res.size
		et.Fractions = append(et.Fractions, nl)
		et.MeanMAPE = append(et.MeanMAPE, res.etc.MeanMAPE[0])
		et.StdMAPE = append(et.StdMAPE, res.etc.StdMAPE[0])
		et.MedianMAPE = append(et.MedianMAPE, res.etc.MedianMAPE[0])
		hy.Fractions = append(hy.Fractions, nl)
		hy.MeanMAPE = append(hy.MeanMAPE, res.hyc.MeanMAPE[0])
		hy.StdMAPE = append(hy.StdMAPE, res.hyc.StdMAPE[0])
		hy.MedianMAPE = append(hy.MedianMAPE, res.hyc.MedianMAPE[0])
		am.Fractions = append(am.Fractions, nl)
		am.MeanMAPE = append(am.MeanMAPE, res.amMAPE)
		am.StdMAPE = append(am.StdMAPE, 0)
		am.MedianMAPE = append(am.MedianMAPE, res.amMAPE)
	}
	r.Notes = append(r.Notes, "x axis is the simulator noise level σ, not a training fraction")
	r.Series = []Series{et, hy, am}
	return r, nil
}

// HardwareTransferCtx runs the paper's concluding scenario: a model
// must become accurate on a new machine from a small re-measurement
// budget. It reports hybrid vs pure ML on the target machine's blocking
// dataset across budgets, with prompt cancellation between trials.
func HardwareTransferCtx(ctx context.Context, opts Options, target *machine.Machine, budgets []float64) (*Report, error) {
	o := opts.normalized()
	if target == nil {
		target = machine.GenericXeon()
	}
	if len(budgets) == 0 {
		budgets = []float64{0.01, 0.02, 0.04}
	}
	ds, err := StencilBlockingDataset(NewStencilSim(target, uint64(o.Seed)))
	if err != nil {
		return nil, err
	}
	am := StencilBlockingAM(target)
	r := &Report{
		ID:          "ext-transfer",
		Title:       fmt.Sprintf("hardware change %s -> %s: accuracy per re-measurement budget", o.Machine.Name, target.Name),
		DatasetSize: ds.Len(),
	}
	amMAPE, err := hybrid.AnalyticalMAPECtx(ctx, ds, am)
	if err != nil {
		return nil, err
	}
	r.Notes = append(r.Notes, fmt.Sprintf("target-machine analytical model (from spec sheet, no data): MAPE = %.1f%%", amMAPE))

	et, err := MAPECurveCtx(ctx, ds, MLTrainable(DefaultPipeline("et", o.Trees)), budgets, o.Reps, o.Seed, "Extra Trees (pure ML)", o.Workers)
	if err != nil {
		return nil, err
	}
	hy, err := MAPECurveCtx(ctx, ds, HybridTrainable(am, hybrid.Config{Workers: o.Workers}), budgets, o.Reps, o.Seed, "Hybrid Model", o.Workers)
	if err != nil {
		return nil, err
	}
	r.Series = []Series{et, hy}
	return r, nil
}

// WriteSeriesCSV exports a report's series in long form
// (series,fraction,mean,std,median) for external plotting.
func (r *Report) WriteSeriesCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"series", "fraction", "mean_mape", "std_mape", "median_mape"}); err != nil {
		return err
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, s := range r.Series {
		for i := range s.Fractions {
			rec := []string{s.Label, f(s.Fractions[i]), f(s.MeanMAPE[i]), f(s.StdMAPE[i]), f(s.MedianMAPE[i])}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}
