// Benchmark harness: one benchmark per figure of the paper's
// evaluation, each reporting the regenerated MAPE values as custom
// metrics (mape_<series>_<fraction>), plus the ablation benches
// EXPERIMENTS.md §Ablations catalogues and micro-benchmarks of the
// substrates.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// The figure benches use reduced repetitions/ensemble sizes so the full
// suite completes in minutes; cmd/lam-bench runs the full-fidelity
// versions.
package lam

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"lam/internal/analytical"
	"lam/internal/cachesim"
	"lam/internal/dataset"
	"lam/internal/fmm"
	"lam/internal/machine"
	"lam/internal/ml"
	"lam/internal/stencil"
	"lam/internal/trace"
)

// benchOpts are the reduced-fidelity settings shared by the figure
// benches.
func benchOpts() FigureOptions {
	return FigureOptions{Seed: 42, Reps: 3, Trees: 40}
}

// benchFigure regenerates one figure per iteration and reports the
// final series values as metrics.
func benchFigure(b *testing.B, id string) {
	b.Helper()
	var rep *Report
	for i := 0; i < b.N; i++ {
		r, err := FigureCtx(context.Background(), id, benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		rep = r
	}
	for _, s := range rep.Series {
		label := strings.ToLower(strings.Fields(s.Label)[0])
		for i, f := range s.Fractions {
			b.ReportMetric(s.MeanMAPE[i], fmt.Sprintf("mape_%s_%g%%", label, f*100))
		}
	}
}

// BenchmarkFig3AStencilML regenerates Fig. 3(A): DT vs extra trees vs
// random forests on the stencil blocking dataset.
func BenchmarkFig3AStencilML(b *testing.B) { benchFigure(b, "fig3a") }

// BenchmarkFig3BFMMML regenerates Fig. 3(B): the same comparison on the
// FMM dataset.
func BenchmarkFig3BFMMML(b *testing.B) { benchFigure(b, "fig3b") }

// BenchmarkFig5GridHybrid regenerates Fig. 5: accurate AM, hybrid at
// 1-4% vs extra trees at 10-20%.
func BenchmarkFig5GridHybrid(b *testing.B) { benchFigure(b, "fig5") }

// BenchmarkFig6BlockingHybrid regenerates Fig. 6: inaccurate blocking
// AM still halves the pure-ML error.
func BenchmarkFig6BlockingHybrid(b *testing.B) { benchFigure(b, "fig6") }

// BenchmarkFig7ThreadsHybrid regenerates Fig. 7: serial AM coupled with
// a multithreaded workload (stacking only).
func BenchmarkFig7ThreadsHybrid(b *testing.B) { benchFigure(b, "fig7") }

// BenchmarkFig8FMMHybrid regenerates Fig. 8: the FMM hybrid model.
func BenchmarkFig8FMMHybrid(b *testing.B) { benchFigure(b, "fig8") }

// --- Ablations (EXPERIMENTS.md §Ablations) ---

// ablationSetup builds the Fig. 6 workload split used by several
// ablations: blocking dataset, 2% training.
func ablationSetup(b *testing.B) (train, test *Dataset, am AnalyticalModel) {
	b.Helper()
	m := BlueWaters()
	ds, err := BuildDataset("stencil-blocking", m, 42)
	if err != nil {
		b.Fatal(err)
	}
	am, err = AnalyticalModelFor("stencil-blocking", m)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	train, test, err = ds.SampleFraction(0.02, rng)
	if err != nil {
		b.Fatal(err)
	}
	return train, test, am
}

// BenchmarkAblationAggregation measures the bagging-style aggregation
// of analytical and stacked predictions on the accurate-AM workload
// (Fig. 5), where the paper says it helps, and reports both variants.
func BenchmarkAblationAggregation(b *testing.B) {
	m := BlueWaters()
	ds, err := BuildDataset("stencil-grid", m, 42)
	if err != nil {
		b.Fatal(err)
	}
	am, err := AnalyticalModelFor("stencil-grid", m)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	train, test, err := ds.SampleFraction(0.02, rng)
	if err != nil {
		b.Fatal(err)
	}
	var plain, agg float64
	for i := 0; i < b.N; i++ {
		hm, err := TrainHybridCtx(context.Background(), train, am, HybridConfig{Seed: 3})
		if err != nil {
			b.Fatal(err)
		}
		plain, err = hm.MAPE(test)
		if err != nil {
			b.Fatal(err)
		}
		ha, err := TrainHybridCtx(context.Background(), train, am, HybridConfig{Seed: 3, Aggregate: true})
		if err != nil {
			b.Fatal(err)
		}
		agg, err = ha.MAPE(test)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(plain, "mape_stack_only")
	b.ReportMetric(agg, "mape_stack+bagging")
}

// BenchmarkAblationAMCalibration quantifies the effect of analytical
// model accuracy on the hybrid (Section VII.A's question): untuned AM
// vs an AM whose global constant is calibrated on the training set.
func BenchmarkAblationAMCalibration(b *testing.B) {
	train, test, amUntuned := ablationSetup(b)
	// Calibrate a single multiplicative constant on the training set —
	// the "tuning" the paper deliberately skips.
	sum, n := 0.0, 0
	for i, x := range train.X {
		p, err := amUntuned.Predict(x)
		if err != nil {
			b.Fatal(err)
		}
		if p > 0 {
			sum += train.Y[i] / p
			n++
		}
	}
	scale := sum / float64(n)
	amTuned := AnalyticalFunc(func(x []float64) (float64, error) {
		p, err := amUntuned.Predict(x)
		return p * scale, err
	})

	var untuned, tuned, amU, amT float64
	for i := 0; i < b.N; i++ {
		h1, err := TrainHybridCtx(context.Background(), train, amUntuned, HybridConfig{Seed: 3})
		if err != nil {
			b.Fatal(err)
		}
		untuned, _ = h1.MAPE(test)
		h2, err := TrainHybridCtx(context.Background(), train, amTuned, HybridConfig{Seed: 3})
		if err != nil {
			b.Fatal(err)
		}
		tuned, _ = h2.MAPE(test)
		amU, _ = AnalyticalMAPECtx(context.Background(), test, amUntuned)
		amT, _ = AnalyticalMAPECtx(context.Background(), test, amTuned)
	}
	b.ReportMetric(amU, "mape_am_untuned")
	b.ReportMetric(amT, "mape_am_tuned")
	b.ReportMetric(untuned, "mape_hybrid_untunedAM")
	b.ReportMetric(tuned, "mape_hybrid_tunedAM")
}

// BenchmarkAblationMissModelVsCacheSim validates the paper's closed-form
// cache-miss model (Section IV.A) against the trace-driven simulator:
// mean relative error of the modelled L1 misses over a grid sweep.
func BenchmarkAblationMissModelVsCacheSim(b *testing.B) {
	m := machine.BlueWatersXE6()
	model := &analytical.StencilModel{Machine: m, WriteAllocate: true}
	var meanRelErr float64
	for i := 0; i < b.N; i++ {
		totalErr, cnt := 0.0, 0
		for _, dims := range [][3]int{{32, 32, 8}, {64, 48, 8}, {96, 64, 4}} {
			h, err := cachesim.FromMachine(m)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := trace.Stencil(trace.StencilConfig{I: dims[0], J: dims[1], K: dims[2]},
				func(a trace.Access) { h.Access(a.Addr) }); err != nil {
				b.Fatal(err)
			}
			simMisses := float64(h.Levels()[0].Misses())
			pred, err := model.Misses(analytical.StencilParams{I: dims[0], J: dims[1], K: dims[2]})
			if err != nil {
				b.Fatal(err)
			}
			rel := (pred[0] - simMisses) / simMisses
			if rel < 0 {
				rel = -rel
			}
			totalErr += rel
			cnt++
		}
		meanRelErr = totalErr / float64(cnt)
	}
	b.ReportMetric(meanRelErr*100, "l1_miss_model_err_%")
}

// --- Substrate micro-benchmarks ---

// BenchmarkStencilKernelNaive measures the naive serial kernel.
func BenchmarkStencilKernelNaive(b *testing.B) {
	benchStencil(b, stencil.Config{})
}

// BenchmarkStencilKernelBlocked measures the spatially blocked kernel.
func BenchmarkStencilKernelBlocked(b *testing.B) {
	benchStencil(b, stencil.Config{BI: 32, BJ: 8, BK: 8})
}

// BenchmarkStencilKernelUnrolled measures the unrolled kernel.
func BenchmarkStencilKernelUnrolled(b *testing.B) {
	benchStencil(b, stencil.Config{Unroll: 4})
}

// BenchmarkStencilKernelParallel measures the multithreaded kernel.
func BenchmarkStencilKernelParallel(b *testing.B) {
	benchStencil(b, stencil.Config{Threads: 4})
}

func benchStencil(b *testing.B, cfg stencil.Config) {
	b.Helper()
	src, err := stencil.NewGrid(96, 96, 96)
	if err != nil {
		b.Fatal(err)
	}
	src.Fill(func(i, j, k int) float64 { return float64(i+j+k) * 0.01 })
	dst := src.Clone()
	cfg.TimeSteps = 1
	b.SetBytes(96 * 96 * 96 * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stencil.Run(src, dst, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFMMEvaluate measures the full FMM pipeline.
func BenchmarkFMMEvaluate(b *testing.B) {
	ps := fmm.UniformCube(4096, 1)
	run := make([]fmm.Particle, len(ps))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(run, ps)
		if _, err := fmm.Evaluate(run, fmm.Config{Order: 4, LeafCap: 64}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFMMDirect measures the O(N²) baseline for the same N.
func BenchmarkFMMDirect(b *testing.B) {
	ps := fmm.UniformCube(4096, 1)
	run := make([]fmm.Particle, len(ps))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(run, ps)
		fmm.Direct(run, 0)
	}
}

// BenchmarkExtraTreesFit measures ensemble training on a
// figure-representative dataset size.
func BenchmarkExtraTreesFit(b *testing.B) {
	ds := benchTrainingSet(b, 300)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		et := ml.NewExtraTrees(50, int64(i))
		if err := et.Fit(ds.X, ds.Y); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtraTreesPredict measures single-vector inference.
func BenchmarkExtraTreesPredict(b *testing.B) {
	ds := benchTrainingSet(b, 300)
	et := ml.NewExtraTrees(50, 1)
	if err := et.Fit(ds.X, ds.Y); err != nil {
		b.Fatal(err)
	}
	x := ds.X[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = et.Predict(x)
	}
}

// BenchmarkHybridTrain measures end-to-end hybrid training at the
// paper's typical training-set size.
func BenchmarkHybridTrain(b *testing.B) {
	train, _, am := ablationSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := TrainHybridCtx(context.Background(), train, am, HybridConfig{Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Worker-pool parallelism: sequential vs parallel fit/predict ---
//
// The *Sequential/*Parallel pairs document the speedup of the shared
// worker pool (internal/parallel) on multi-core hardware; on one core
// they cost the same. Predictions are bit-identical in every case
// (asserted by the determinism tests in internal/ml and
// internal/experiments).

func benchForestFit(b *testing.B, workers int) {
	ds := benchTrainingSet(b, 400)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		et := ml.NewExtraTrees(100, 7)
		et.Workers = workers
		if err := et.Fit(ds.X, ds.Y); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkForestFitSequential fits a 100-tree extra-trees ensemble on
// one worker.
func BenchmarkForestFitSequential(b *testing.B) { benchForestFit(b, 1) }

// BenchmarkForestFitParallel fits the same ensemble on the full worker
// pool (GOMAXPROCS workers).
func BenchmarkForestFitParallel(b *testing.B) { benchForestFit(b, 0) }

func benchForestPredictBatch(b *testing.B, workers int) {
	ds := benchTrainingSet(b, 400)
	et := ml.NewExtraTrees(100, 7)
	if err := et.Fit(ds.X, ds.Y); err != nil {
		b.Fatal(err)
	}
	out := make([]float64, len(ds.X))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ml.PredictBatchIntoCtx(context.Background(), et, ds.X, out, workers); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkForestPredictBatchSequential scores 400 rows on one worker.
func BenchmarkForestPredictBatchSequential(b *testing.B) { benchForestPredictBatch(b, 1) }

// BenchmarkForestPredictBatchParallel scores the same rows on the pool.
func BenchmarkForestPredictBatchParallel(b *testing.B) { benchForestPredictBatch(b, 0) }

// --- v2 Predictor interface overhead ---
//
// The pair below documents that routing batch prediction through the
// context-first Predictor interface adds no measurable overhead over
// calling ml.PredictBatchIntoCtx directly: both funnel into the same
// block loop, and the extra work is one output allocation per call.

// benchPredictorSetup fits a 100-tree extra-trees pipeline on 400 rows
// and returns it with its training matrix.
func benchPredictorSetup(b *testing.B) (*ml.Pipeline, [][]float64) {
	b.Helper()
	ds := benchTrainingSet(b, 400)
	p := &ml.Pipeline{Model: ml.NewExtraTrees(100, 7)}
	if err := p.Fit(ds.X, ds.Y); err != nil {
		b.Fatal(err)
	}
	return p, ds.X
}

// BenchmarkPredictBatchDirect scores 400 rows via the package entry
// point into a reused slice.
func BenchmarkPredictBatchDirect(b *testing.B) {
	p, X := benchPredictorSetup(b)
	out := make([]float64, len(X))
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ml.PredictBatchIntoCtx(ctx, p, X, out, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPredictBatchPredictor scores the same rows through the v2
// Predictor interface.
func BenchmarkPredictBatchPredictor(b *testing.B) {
	p, X := benchPredictorSetup(b)
	pred := MLPredictor(p)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pred.PredictBatch(ctx, X); err != nil {
			b.Fatal(err)
		}
	}
}

// benchTrainingSet draws n rows from the blocking dataset.
func benchTrainingSet(b *testing.B, n int) *dataset.Dataset {
	b.Helper()
	ds, err := BuildDataset("stencil-blocking", BlueWaters(), 42)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	sub, _, err := ds.SampleN(n, rng)
	if err != nil {
		b.Fatal(err)
	}
	return sub
}
