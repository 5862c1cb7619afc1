// Offline model lifecycle: Section VI stresses that "the model is
// constructed once offline but used many times. It is not necessary to
// gather a training dataset or rebuild the model for every prediction."
// This example trains a hybrid model, publishes it to a model registry,
// loads it back in a fresh "deployment" step, and verifies the
// predictions survive the round trip bit-for-bit — the loaded artifact
// decodes straight into the compiled flat node tables the serving layer
// runs on, and its analytical component is rebuilt from the registry
// metadata. Uses the context-first v2 API with SIGINT cancellation,
// like the cmds.
//
// Run with: go run ./examples/offline-model
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"os"
	"os/signal"
	"syscall"

	"lam"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	m := lam.BlueWaters()
	ds, err := lam.BuildDataset("fmm", m, 42)
	if err != nil {
		log.Fatal(err)
	}
	am, err := lam.AnalyticalModelFor("fmm", m)
	if err != nil {
		log.Fatal(err)
	}

	// --- Offline phase: train once, save the artefact. ---
	rng := rand.New(rand.NewSource(2))
	train, test, err := ds.SampleFraction(0.15, rng)
	if err != nil {
		log.Fatal(err)
	}
	hy, err := lam.TrainHybridCtx(ctx, train, am, lam.HybridConfig{Seed: 5})
	if err != nil {
		log.Fatal(err)
	}
	dir, err := os.MkdirTemp("", "lam-offline-model-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	reg, err := lam.OpenRegistry(dir)
	if err != nil {
		log.Fatal(err)
	}
	meta, err := reg.SaveHybrid(hy, lam.ModelMeta{
		Name: "fmm-hybrid", Workload: "fmm", Machine: "bluewaters", TrainSize: train.Len(),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("offline: trained on %d samples, published %s v%d (%s) to %s\n",
		train.Len(), meta.Name, meta.Version, meta.Format, dir)

	// --- Deployment phase: load and predict, no training data needed.
	// The analytical model (a function of the machine spec) is rebuilt
	// from the version's workload and machine metadata. ---
	rm, err := reg.Load(meta.Name, 0)
	if err != nil {
		log.Fatal(err)
	}
	loaded := rm.Hybrid()

	mape, err := loaded.MAPECtx(ctx, test)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("deployment: held-out MAPE of the reloaded model: %.1f%%\n", mape)

	// The round trip must be exact; both models serve through the
	// unified v2 Predictor interface.
	orig, dep := lam.HybridPredictor(hy), lam.HybridPredictor(loaded)
	for i := 0; i < 5; i++ {
		a, err := orig.Predict(ctx, test.X[i])
		if err != nil {
			log.Fatal(err)
		}
		b, err := dep.Predict(ctx, test.X[i])
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  x=%v  original=%.6gs  reloaded=%.6gs  (equal: %v)\n",
			test.X[i], a, b, a == b)
	}
}
