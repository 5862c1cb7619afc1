package hybrid

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"lam/internal/lamerr"
	"lam/internal/ml"
)

// routedModel trains the paper's hybrid — the default 100-tree
// extra-trees pipeline — on 40 rows, as the sweeps do at a few percent
// of a dataset, and returns it with the fewest rows its ML component
// routes.
func routedModel(t *testing.T, am AnalyticalModel, agg bool, seed int64) (*Model, int) {
	t.Helper()
	train, _ := syntheticWorkload(40, seed)
	m, err := TrainCtx(context.Background(), train, am, Config{Aggregate: agg, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	n := 1
	for !ml.Routes(m.mlModel, n) {
		n++
		if n > 1<<16 {
			t.Fatal("the ML component routes no batch")
		}
	}
	return m, n
}

// TestRoutedBatchMatchesPerRow: with and without the aggregate, a batch
// one row below the routing threshold (walked in blocks) and batches
// from it (routed whole) write exactly — math.Float64bits — what a
// per-row Predict loop returns, on one and two workers, with and
// without a cancellable context, on rows carrying NaN, ±Inf, −0 and
// denormals.
func TestRoutedBatchMatchesPerRow(t *testing.T) {
	_, am := syntheticWorkload(1, 61)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, agg := range []bool{false, true} {
		m, th := routedModel(t, am, agg, 62)
		Xq := awkwardRows(rand.New(rand.NewSource(63)), 3*th)
		want := make([]float64, len(Xq))
		for i, x := range Xq {
			var err error
			if want[i], err = m.Predict(x); err != nil {
				t.Fatal(err)
			}
		}
		for _, n := range []int{th - 1, th, th + 1, 3 * th} {
			for _, workers := range []int{1, 2} {
				for _, c := range []context.Context{nil, ctx} {
					got := make([]float64, n)
					if err := m.PredictBatchIntoCtx(c, Xq[:n], got, workers); err != nil {
						t.Fatalf("agg=%v n=%d workers=%d: %v", agg, n, workers, err)
					}
					for i := range got {
						if !sameBits(got[i], want[i]) {
							t.Fatalf("agg=%v n=%d (threshold %d) workers=%d row %d (%v): batch %x != Predict %x",
								agg, n, th, workers, i, Xq[i], got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// TestRoutedBatchCancelledInAnalyticalPass: a routed batch is one
// block, so a context cancelled while its analytical column is being
// computed returns the typed cancellation error before the ML component
// runs, and no row of out is written.
func TestRoutedBatchCancelledInAnalyticalPass(t *testing.T) {
	_, base := syntheticWorkload(1, 71)
	const trigger = -7
	var cancel context.CancelFunc
	am := AnalyticalFunc(func(x []float64) (float64, error) {
		if x[2] == trigger {
			cancel()
			x = []float64{x[0], x[1], 0.5}
		}
		return base.Predict(x)
	})
	m, th := routedModel(t, am, false, 72)
	X := awkwardRows(rand.New(rand.NewSource(73)), 2*th)
	X[10][2] = trigger
	var ctx context.Context
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	got := make([]float64, len(X))
	for i := range got {
		got[i] = -12345
	}
	err := m.PredictBatchIntoCtx(ctx, X, got, 1)
	if !errors.Is(err, lamerr.ErrCancelled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v, want a cancellation wrapping lamerr.ErrCancelled and context.Canceled", err)
	}
	for i, v := range got {
		if v != -12345 {
			t.Fatalf("row %d written by a routed batch cancelled in its analytical pass", i)
		}
	}
}

// TestRoutedBatchFailingRow: in a routed batch the error is the one
// Predict returns for the lowest failing row, and every row before it
// is scored.
func TestRoutedBatchFailingRow(t *testing.T) {
	_, base := syntheticWorkload(1, 81)
	refused := errors.New("model does not cover this point")
	am := AnalyticalFunc(func(x []float64) (float64, error) {
		if x[2] < 0 {
			return 0, fmt.Errorf("c = %v: %w", x[2], refused)
		}
		return base.Predict(x)
	})
	m, th := routedModel(t, am, true, 82)
	X := awkwardRows(rand.New(rand.NewSource(83)), 2*th)
	for i := range X {
		X[i][2] = math.Abs(X[i][2])
	}
	first := th + 3
	X[first][2], X[first+5] = -1, []float64{1}
	_, wantErr := m.Predict(X[first])
	got := make([]float64, len(X))
	if err := m.PredictBatchIntoCtx(context.Background(), X, got, 1); err == nil || err.Error() != wantErr.Error() || !errors.Is(err, refused) {
		t.Fatalf("error %v, want row %d's %v", err, first, wantErr)
	}
	for i := range first {
		want, err := m.Predict(X[i])
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(got[i], want) {
			t.Fatalf("row %d before the failing row %d holds %x, want %x", i, first, got[i], want)
		}
	}
}

// TestRoutedBatchAllocationFree: a warmed routed batch on one worker
// allocates nothing, with and without the aggregate.
func TestRoutedBatchAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	_, am := syntheticWorkload(1, 91)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, agg := range []bool{false, true} {
		m, th := routedModel(t, am, agg, 92)
		X := awkwardRows(rand.New(rand.NewSource(93)), 2*th)
		out := make([]float64, len(X))
		if allocs := testing.AllocsPerRun(20, func() {
			if err := m.PredictBatchIntoCtx(ctx, X, out, 1); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("agg=%v: a routed batch allocates %.1f, want 0", agg, allocs)
		}
	}
}

// TestRoutedBatchHoldsNoCallerRows: the routed path's pooled scratch —
// the analytical column and the kernel's columns — holds numbers only,
// so a routed batch is collectable once its caller drops it.
func TestRoutedBatchHoldsNoCallerRows(t *testing.T) {
	_, am := syntheticWorkload(1, 101)
	m, th := routedModel(t, am, false, 102)
	collected := make(chan string, 2)
	func() {
		X := awkwardRows(rand.New(rand.NewSource(103)), 2*th)
		runtime.SetFinalizer(&X[0], func(*[]float64) { collected <- "row headers" })
		runtime.SetFinalizer(&X[th][0], func(*float64) { collected <- "a row" })
		if err := m.PredictBatchIntoCtx(context.Background(), X, make([]float64, len(X)), 1); err != nil {
			t.Fatal(err)
		}
	}()
	// As in TestAugBlockHoldsNoCallerRows, collect until both
	// finalizers have run.
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
