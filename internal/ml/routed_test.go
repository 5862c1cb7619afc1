package ml

import (
	"context"
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// everySplit collects every split point of e, so rows can sit exactly
// on a threshold at every depth a partition reaches.
func everySplit(e *CompiledEnsemble) []splitPoint {
	var splits []splitPoint
	for _, n := range e.hot {
		if n.feature >= 0 {
			splits = append(splits, splitPoint{n.feature, n.threshold})
		}
	}
	return splits
}

// routeThreshold returns the fewest rows e routes, checking that one
// row fewer is walked.
func routeThreshold(t *testing.T, e *CompiledEnsemble) int {
	t.Helper()
	n := 1
	for !e.routes(n) {
		n++
	}
	if n < 2 || e.routes(n-1) {
		t.Fatalf("routes is not a threshold at %d rows", n)
	}
	return n
}

// routedModels fits the estimators the routed kernel serves — bare
// forests (random and best splits, with a bootstrap) and a pipeline —
// small enough that a few hundred rows qualify.
func routedModels(t *testing.T, X [][]float64, y []float64) []diffModel {
	t.Helper()
	models := []diffModel{
		{"forest", &Forest{NTrees: 9, Tree: TreeConfig{Splitter: RandomSplitter, MaxDepth: 6}, Seed: 3, Workers: 1}},
		{"forest/bootstrap", &Forest{NTrees: 6, Tree: TreeConfig{MaxDepth: 5, MinSamplesLeaf: 2}, Bootstrap: true, Seed: 4, Workers: 1}},
		{"pipeline", &Pipeline{Model: &Forest{NTrees: 11, Tree: TreeConfig{Splitter: RandomSplitter, MaxDepth: 7}, Seed: 5, Workers: 1}}},
	}
	for _, m := range models {
		if err := m.r.Fit(X, y); err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
	}
	return models
}

// TestRoutedMatchesWalk is the differential test of the routed kernel:
// for a bare forest, a bootstrap forest and a pipeline, the batch entry
// points on one worker — walked one row below the routing threshold,
// routed from it — and the kernel called directly at every size write
// exactly (math.Float64bits) what per-row Predict returns, on rows
// carrying NaN, ±Inf, −0 and denormals and rows sitting exactly on a
// split threshold at any depth.
func TestRoutedMatchesWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(0x70a7ed))
	const p = 5
	X, y := randomRegression(rng, 300, p)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, m := range routedModels(t, X, y) {
		e, sc := m.r.(router).routed()
		th := routeThreshold(t, e)
		var splits []splitPoint
		if sc == nil { // a pipeline splits on scaled values, which raw rows cannot be planted on
			splits = everySplit(e)
		}
		Xq := awkwardRows(rng, 3*th, p, splits)
		want := make([]float64, len(Xq))
		for i, x := range Xq {
			want[i] = m.r.Predict(x)
		}
		for _, n := range []int{0, 1, 5, th - 1, th, th + 1, 3 * th} {
			got := make([]float64, n)
			check := func(entry string) {
				t.Helper()
				for i := range got {
					if !sameBits(got[i], want[i]) {
						t.Fatalf("%s %s n=%d (threshold %d) row %d (%v): %x != per-row %x", m.name, entry, n, th, i, Xq[i], got[i], want[i])
					}
					got[i] = -1
				}
			}
			if err := PredictBatchInto(m.r, Xq[:n], got, 1); err != nil {
				t.Fatal(err)
			}
			check("PredictBatchInto")
			if err := PredictBatchIntoCtx(ctx, m.r, Xq[:n], got, 1); err != nil {
				t.Fatal(err)
			}
			check("PredictBatchIntoCtx")
			if !e.predictRouted(nil, sc, Xq[:n], nil, got) {
				t.Fatal("an uncancellable routed batch reports a cancel")
			}
			check("predictRouted")
		}
	}
}

// TestStackedMatchesRows: PredictStackedIntoCtx scores rows with a
// stacked column exactly as PredictBatchInto scores the same rows with
// the column appended, for a bare forest and a pipeline, and refuses a
// model it cannot route and rows of the wrong arity.
func TestStackedMatchesRows(t *testing.T) {
	rng := rand.New(rand.NewSource(0x57ac))
	const p = 4
	X, y := randomRegression(rng, 300, p+1)
	for _, m := range routedModels(t, X, y)[1:] {
		Xq := awkwardRows(rng, 400, p+1, nil)
		rows, stacked := make([][]float64, len(Xq)), make([]float64, len(Xq))
		for i, x := range Xq {
			rows[i], stacked[i] = x[:p], x[p]
		}
		want, got := make([]float64, len(Xq)), make([]float64, len(Xq))
		if err := PredictBatchInto(m.r, Xq, want, 1); err != nil {
			t.Fatal(err)
		}
		if err := PredictStackedIntoCtx(context.Background(), m.r, rows, stacked, got); err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if !sameBits(got[i], want[i]) {
				t.Fatalf("%s row %d: stacked %x != appended %x", m.name, i, got[i], want[i])
			}
		}
		if err := PredictStackedIntoCtx(context.Background(), m.r, Xq, stacked, got); err == nil {
			t.Fatalf("%s: rows already as wide as the model scored with a stacked column", m.name)
		}
	}
	tree := NewDecisionTree(TreeConfig{Seed: 1})
	if err := tree.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if err := PredictStackedIntoCtx(context.Background(), tree, X[:1], []float64{0}, []float64{0}); err == nil {
		t.Fatal("a model with no routed path accepted a stacked batch")
	}
}

// TestRoutedCancelLeavesOutUntouched: a routed batch whose done channel
// is closed stops before a tree and writes nothing.
func TestRoutedCancelLeavesOutUntouched(t *testing.T) {
	rng := rand.New(rand.NewSource(0xca9))
	X, y := randomRegression(rng, 300, 5)
	m := routedModels(t, X, y)[2]
	e, sc := m.r.(router).routed()
	Xq := awkwardRows(rng, 2*routeThreshold(t, e), 5, nil)
	got := make([]float64, len(Xq))
	for i := range got {
		got[i] = -12345
	}
	done := make(chan struct{})
	close(done)
	if e.predictRouted(done, sc, Xq, nil, got) {
		t.Fatal("a routed batch ran past a closed done channel")
	}
	for i, v := range got {
		if v != -12345 {
			t.Fatalf("a cancelled routed batch wrote row %d", i)
		}
	}
}

// TestRoutedAllocationFree: a warmed routed batch allocates nothing; its
// scratch is pooled.
func TestRoutedAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	rng := rand.New(rand.NewSource(0xa11))
	X, y := randomRegression(rng, 300, 5)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, m := range routedModels(t, X, y) {
		e, _ := m.r.(router).routed()
		Xq := awkwardRows(rng, 2*routeThreshold(t, e), 5, nil)
		out := make([]float64, len(Xq))
		if allocs := testing.AllocsPerRun(20, func() {
			if err := PredictBatchIntoCtx(ctx, m.r, Xq, out, 1); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("%s: a routed batch allocates %.1f, want 0", m.name, allocs)
		}
	}
}

// TestRoutedScratchHoldsNoCallerRows: the routed kernel's pooled scratch
// is numbers only, so a routed batch is collectable once its caller
// drops it.
func TestRoutedScratchHoldsNoCallerRows(t *testing.T) {
	rng := rand.New(rand.NewSource(0xf1a))
	X, y := randomRegression(rng, 300, 5)
	m := routedModels(t, X, y)[2]
	e, _ := m.r.(router).routed()
	collected := make(chan string, 2)
	func() {
		Xq := awkwardRows(rng, 2*routeThreshold(t, e), 5, nil)
		runtime.SetFinalizer(&Xq[0], func(*[]float64) { collected <- "row headers" })
		runtime.SetFinalizer(&Xq[1][0], func(*float64) { collected <- "a row" })
		if err := PredictBatchInto(m.r, Xq, make([]float64, len(Xq)), 1); err != nil {
			t.Fatal(err)
		}
	}()
	// As in TestPooledBlocksHoldNoCallerRows, the headers' finalizer
	// runs before the row's is queued, so collect until both have run.
	deadline := time.Now().Add(5 * time.Second)
	for seen := 0; seen < 2; {
		runtime.GC()
		select {
		case <-collected:
			seen++
		case <-time.After(10 * time.Millisecond):
			if time.Now().After(deadline) {
				t.Fatalf("the routed batch is still reachable after 5 s of collections (%d of 2 finalizers ran)", seen)
			}
		}
	}
}
