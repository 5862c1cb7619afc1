package experiments

import (
	"context"
	"reflect"
	"testing"

	"lam/internal/machine"
)

// smallOpts keeps the parallel-determinism sweeps fast.
func smallOpts(workers int) Options {
	return Options{
		Machine: machine.BlueWatersXE6(),
		Seed:    21,
		Reps:    2,
		Trees:   10,
		Workers: workers,
	}
}

// TestMAPECurveParallelBitIdentical asserts the tentpole guarantee at
// the sweep level: the same curve comes out whether trials run on one
// worker or many.
func TestMAPECurveParallelBitIdentical(t *testing.T) {
	o := smallOpts(1)
	ds, err := StencilGridDataset(NewStencilSim(o.Machine, uint64(o.Seed)))
	if err != nil {
		t.Fatal(err)
	}
	newModel := MLTrainable(DefaultPipeline("et", o.Trees))
	fractions := []float64{0.05, 0.10}

	seq, err := MAPECurveCtx(context.Background(), ds, newModel, fractions, 3, o.Seed, "et", 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		par, err := MAPECurveCtx(context.Background(), ds, newModel, fractions, 3, o.Seed, "et", workers)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seq, par) {
			t.Fatalf("workers=%d: series differs from sequential:\nseq: %+v\npar: %+v", workers, seq, par)
		}
	}
}

// TestFigureParallelBitIdentical runs one full figure sequentially and
// in parallel and requires identical reports.
func TestFigureParallelBitIdentical(t *testing.T) {
	seq, err := RunCtx(context.Background(), "fig5", smallOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunCtx(context.Background(), "fig5", smallOpts(8))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("fig5 differs between worker counts:\nseq: %+v\npar: %+v", seq, par)
	}
}

// TestRunManyMatchesRun checks the batched figure API returns exactly
// what per-figure calls return, in input order.
func TestRunManyMatchesRun(t *testing.T) {
	ids := []string{"fig5", "fig6"}
	opts := smallOpts(4)
	batch, err := RunManyCtx(context.Background(), ids, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(ids) {
		t.Fatalf("RunManyCtx returned %d reports, want %d", len(batch), len(ids))
	}
	for i, id := range ids {
		single, err := RunCtx(context.Background(), id, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(single, batch[i]) {
			t.Fatalf("RunManyCtx[%d] (%s) differs from RunCtx", i, id)
		}
	}
}

// TestNoiseSensitivityParallelBitIdentical covers the extension sweep's
// per-level fan-out.
func TestNoiseSensitivityParallelBitIdentical(t *testing.T) {
	levels := []float64{0.02, 0.08}
	seq, err := NoiseSensitivityCtx(context.Background(), smallOpts(1), levels)
	if err != nil {
		t.Fatal(err)
	}
	par, err := NoiseSensitivityCtx(context.Background(), smallOpts(8), levels)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("noise sweep differs between worker counts:\nseq: %+v\npar: %+v", seq, par)
	}
}
