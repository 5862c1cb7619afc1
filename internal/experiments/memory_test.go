package experiments

import (
	"context"
	"runtime"
	"runtime/debug"
	"testing"

	"lam/internal/hybrid"
	"lam/internal/ml"
)

// figurePair runs a figure-shaped pair of sweeps on the grid dataset
// through one sweepMemory: extra trees, then the hybrid at the same
// fractions, every fit and trial on one worker. between runs after the
// first sweep.
func figurePair(t *testing.T, reps int, between func()) {
	t.Helper()
	ds := canonicalDataset(t, "stencil-grid")
	am, err := AMByDataset("stencil-grid", bw())
	if err != nil {
		t.Fatal(err)
	}
	fractions := []float64{0.06, 0.04, 0.02}
	et := MLTrainable(func(seed int64) ml.Regressor {
		f := ml.NewExtraTrees(100, seed)
		f.Workers = 1
		return &ml.Pipeline{Model: f}
	})
	mem := new(sweepMemory)
	if _, err := mapeCurve(context.Background(), mem, ds, et, fractions, reps, 3, "et", 1); err != nil {
		t.Fatal(err)
	}
	between()
	if _, err := mapeCurve(context.Background(), mem, ds, HybridTrainable(am, hybrid.Config{Workers: 1}), fractions, reps, 3, "hybrid", 1); err != nil {
		t.Fatal(err)
	}
}

// TestFigureSweepMarginalBytes: a figure's trials borrow everything
// they fit in from the memory the figure owns, so a trial beyond the
// first few costs only what is its own (the hybrid's augmented rows,
// the model headers): with a collection forced before each run and
// none during it, a figure-shaped pair of sweeps at 8 repetitions
// allocates at most trialBudget bytes per extra trial more than at 2.
// It reads 2 133 B. When every trial allocated its column view, scaled
// rows, members and importances, and each sweep owned its memory, it
// read 24 144 B.
func TestFigureSweepMarginalBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	const trialBudget = 4 << 10
	// The collector runs twice before each run, emptying the sync.Pools
	// trials still draw from outside the figure's memory (the draw's
	// permutation, the hybrid's analytical column, the routed kernel's
	// scratch for the scoring) so that both runs refill them alike, and
	// never during it: how many collections fall in a run is no
	// property of a trial.
	// One processor, as testing.AllocsPerRun takes: a pooled object put
	// on one processor's private slot is not found from another, and
	// the misses, not the trials, would set the count.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	bytes := func(reps int) uint64 {
		runtime.GC()
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		figurePair(t, reps, func() {})
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	b2, b8 := bytes(2), bytes(8)
	extra := uint64(2 * 3 * (8 - 2))
	perTrial := (max(b8, b2) - b2) / extra
	t.Logf("reps 2: %d B, reps 8: %d B: %d B per extra trial, budget %d", b2, b8, perTrial, trialBudget)
	if perTrial > trialBudget {
		t.Errorf("an extra trial allocated %d bytes, budget %d", perTrial, trialBudget)
	}
}

// TestFigureSweepsShareTables: the second sweep of a figure fits into
// the walk tables the first left, so it makes none of its own.
func TestFigureSweepsShareTables(t *testing.T) {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	var first, second int64
	figurePair(t, 2, func() { first = tablesMade() })
	second = tablesMade()
	if first == 0 {
		t.Fatal("the memory profile holds no walk table from the first sweep")
	}
	if second != first {
		t.Errorf("the second sweep made %d walk tables", second-first)
	}
}

// tablesMade returns how many allocations the memory profile holds
// from ml.Tables making a walk table (its take method). The profile is
// published by collections, so two run first.
func tablesMade() int64 {
	runtime.GC()
	runtime.GC()
	var recs []runtime.MemProfileRecord
	for n := 64; ; n *= 2 {
		recs = make([]runtime.MemProfileRecord, n)
		if k, ok := runtime.MemProfile(recs, true); ok {
			recs = recs[:k]
			break
		}
	}
	var made int64
	for _, r := range recs {
		frames := runtime.CallersFrames(r.Stack())
		for {
			f, more := frames.Next()
			if f.Function == "lam/internal/ml.(*Tables).take" {
				made += r.AllocObjects
				break
			}
			if !more {
				break
			}
		}
	}
	return made
}
