// Command lam-predict trains a performance predictor on a dataset CSV
// (as produced by lam-datagen) and reports held-out accuracy, following
// the paper's methodology: uniform random training sample, MAPE on the
// complement.
//
// Usage:
//
//	lam-predict -data fmm.csv -model hybrid -workload fmm -train 0.02
//	lam-predict -data grid.csv -model et -train 0.10
//	lam-predict -data grid.csv -model hybrid -workload stencil-grid \
//	            -registry ./models -name grid-hybrid
//
// Models: et (extra trees), rf (random forest), dt (decision tree),
// hybrid (requires -workload to select the analytical model).
//
// With -registry and -name, the trained model is published as a new
// version in the model registry — metadata (workload, machine, train
// size, held-out MAPE) included — ready for lam-serve. The artifact is
// written in lamb1, the flat binary format.
//
// -workers bounds the worker pool used for ensemble fitting and batch
// prediction (0 = GOMAXPROCS, 1 = fully sequential): a positive value
// sets GOMAXPROCS, so it caps CPU as well as goroutines. Predictions
// are bit-identical for every value.
//
// SIGINT/SIGTERM cancel the training context: long fits stop promptly
// and the process exits 130 without writing a partial registry version.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"runtime"
	"syscall"

	"lam"
	"lam/internal/dataset"
	"lam/internal/hybrid"
	"lam/internal/ml"
)

func main() {
	dataPath := flag.String("data", "", "dataset CSV (required)")
	model := flag.String("model", "et", "model: et, rf, dt, hybrid")
	workload := flag.String("workload", "", "workload name for the hybrid analytical model")
	machineName := flag.String("machine", "bluewaters", "machine preset for the analytical model")
	trainFrac := flag.Float64("train", 0.1, "training fraction (0, 1)")
	seed := flag.Int64("seed", 42, "sampling and model seed")
	trees := flag.Int("trees", 100, "ensemble size")
	show := flag.Int("show", 5, "example predictions to print")
	workers := flag.Int("workers", 0, "worker pool size for training and batch prediction (0 = GOMAXPROCS, 1 = sequential)")
	regDir := flag.String("registry", "", "publish the trained model into this registry directory (needs -name)")
	name := flag.String("name", "", "registry model name")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *workers > 0 {
		runtime.GOMAXPROCS(*workers)
	}
	if *dataPath == "" {
		fatal(fmt.Errorf("-data is required"))
	}
	if (*regDir == "") != (*name == "") {
		fatal(fmt.Errorf("-registry and -name must be used together"))
	}
	// Fail publish preconditions before the (potentially long) training
	// run, not after it.
	var modelRegistry *lam.Registry
	if *regDir != "" {
		if !lam.ValidModelName(*name) {
			fatal(fmt.Errorf("invalid registry model name %q (want lowercase [a-z0-9._-])", *name))
		}
		var err error
		if modelRegistry, err = lam.OpenRegistry(*regDir); err != nil {
			fatal(err)
		}
	}
	f, err := os.Open(*dataPath)
	if err != nil {
		fatal(err)
	}
	ds, err := dataset.ReadCSV(f)
	f.Close()
	if err != nil {
		fatal(err)
	}

	rng := rand.New(rand.NewSource(*seed))
	train, test, err := ds.SampleFraction(*trainFrac, rng)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("dataset: %d rows (%d features); training on %d, testing on %d\n",
		ds.Len(), ds.NumFeatures(), train.Len(), test.Len())

	// Train through the v2 Predictor interface: the same path the
	// registry and lam-serve use, cancellable via ^C.
	var predictor lam.Predictor
	var publish func(reg *lam.Registry, meta lam.ModelMeta) (lam.ModelMeta, error)
	switch *model {
	case "hybrid":
		if *workload == "" {
			fatal(fmt.Errorf("hybrid model needs -workload to pick the analytical model"))
		}
		m, err := lam.MachineByName(*machineName)
		if err != nil {
			fatal(err)
		}
		am, err := lam.AnalyticalModelFor(*workload, m)
		if err != nil {
			fatal(err)
		}
		amMAPE, err := lam.AnalyticalMAPECtx(ctx, test, am)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("analytical model alone: MAPE %.2f%%\n", amMAPE)
		hy, err := lam.TrainHybridCtx(ctx, train, am, hybrid.Config{Seed: *seed, Workers: *workers})
		if err != nil {
			fatal(err)
		}
		predictor = lam.HybridPredictor(hy)
		publish = func(reg *lam.Registry, meta lam.ModelMeta) (lam.ModelMeta, error) {
			return reg.SaveHybrid(hy, meta)
		}
	case "et", "rf", "dt":
		var reg ml.Regressor
		switch *model {
		case "et":
			reg = lam.NewExtraTrees(*trees, *seed)
		case "rf":
			reg = lam.NewRandomForest(*trees, *seed)
		default:
			reg = lam.NewDecisionTree(*seed)
		}
		if err := ml.FitCtx(ctx, reg, train.X, train.Y); err != nil {
			fatal(err)
		}
		predictor = lam.MLPredictor(reg)
		publish = func(r *lam.Registry, meta lam.ModelMeta) (lam.ModelMeta, error) {
			return r.SaveRegressor(reg, meta)
		}
	default:
		fatal(fmt.Errorf("unknown model %q", *model))
	}

	pred, err := predictor.PredictBatch(ctx, test.X)
	if err != nil {
		fatal(err)
	}
	testMAPE := lam.MAPE(test.Y, pred)
	fmt.Printf("%s model: held-out MAPE %.2f%%\n", *model, testMAPE)

	n := *show
	if n > test.Len() {
		n = test.Len()
	}
	for i := 0; i < n; i++ {
		fmt.Printf("  x=%v  true=%.6gs  predicted=%.6gs\n", test.X[i], test.Y[i], pred[i])
	}

	if modelRegistry != nil {
		meta, err := publish(modelRegistry, lam.ModelMeta{
			Name:      *name,
			Workload:  *workload,
			Machine:   *machineName,
			TrainSize: train.Len(),
			TestMAPE:  testMAPE,
			Notes:     fmt.Sprintf("lam-predict -data %s -model %s -train %g -seed %d", *dataPath, *model, *trainFrac, *seed),
		})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("published %s v%d to %s\n", meta.Name, meta.Version, *regDir)
	}
}

func fatal(err error) {
	if errors.Is(err, lam.ErrCancelled) {
		fmt.Fprintln(os.Stderr, "lam-predict: interrupted:", err)
		os.Exit(130)
	}
	fmt.Fprintln(os.Stderr, "lam-predict:", err)
	os.Exit(1)
}
