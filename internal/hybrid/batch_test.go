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

// batchSizes are the batch sizes the block path is swept over: the
// kernel's lane tails (n mod 4) and one row either side of the
// batchBlock seams.
var batchSizes = []int{0, 1, 3, 4, 5, 7, 8, 9, batchBlock - 1, batchBlock, batchBlock + 1, 2*batchBlock + 1}

// awkwardRows returns n rows in syntheticWorkload's ranges, a quarter of
// them carrying NaN, ±Inf, −0 or a denormal in a random feature.
func awkwardRows(rng *rand.Rand, n int) [][]float64 {
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 5e-324, -1e-310}
	X := make([][]float64, n)
	for i := range X {
		X[i] = []float64{rng.Float64() * 4, rng.Float64() * 3, rng.Float64()}
		if rng.Intn(4) == 0 {
			X[i][rng.Intn(3)] = special[rng.Intn(len(special))]
		}
	}
	return X
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// smallML is a 15-tree extra-trees pipeline: past the ML plane's
// tree-major cutoff on the test workloads, quick to fit.
func smallML() ml.Regressor {
	et := ml.NewExtraTrees(15, 4)
	et.Workers = 1
	return &ml.Pipeline{Model: et}
}

// TestBatchPathMatchesPerRow is the differential test of the hybrid's
// block path: for every coupling mode, with and without the aggregate,
// under every batch size and worker count, PredictBatchIntoCtx writes
// exactly — math.Float64bits — what a per-row Predict loop returns,
// with and without a cancellable context.
func TestBatchPathMatchesPerRow(t *testing.T) {
	train, am := syntheticWorkload(300, 11)
	rng := rand.New(rand.NewSource(12))
	Xq := awkwardRows(rng, batchSizes[len(batchSizes)-1])
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	want := make([]float64, len(Xq))
	for _, mode := range []Mode{StackMode, ResidualMode, RatioMode} {
		for _, agg := range []bool{false, true} {
			m, err := TrainCtx(context.Background(), train, am, Config{Mode: mode, Aggregate: agg, AggregateWeight: 0.3, NewML: smallML, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			for i, x := range Xq {
				if want[i], err = m.Predict(x); err != nil {
					t.Fatal(err)
				}
			}
			for _, n := range batchSizes {
				for _, workers := range []int{1, 2, 7} {
					for _, c := range []context.Context{nil, ctx} {
						got := make([]float64, n)
						if err := m.PredictBatchIntoCtx(c, Xq[:n], got, workers); err != nil {
							t.Fatalf("%v agg=%v n=%d workers=%d: %v", mode, agg, n, workers, err)
						}
						for i := range got {
							if !sameBits(got[i], want[i]) {
								t.Fatalf("%v agg=%v n=%d workers=%d row %d (%v): block path %x != Predict %x",
									mode, agg, n, workers, i, Xq[i], got[i], want[i])
							}
						}
					}
				}
			}
		}
	}
}

// TestBatchFailingRowSemantics pins what the block fan-out must keep of
// the per-row loop it replaced, for every worker count: the error is
// the one Predict returns for the lowest failing row (a refused
// analytical score or a wrong arity, whichever row comes first), and
// every row before that one has been written.
func TestBatchFailingRowSemantics(t *testing.T) {
	train, base := syntheticWorkload(200, 21)
	refused := errors.New("model does not cover this point")
	am := AnalyticalFunc(func(x []float64) (float64, error) {
		if x[2] < 0 {
			return 0, fmt.Errorf("c = %v: %w", x[2], refused)
		}
		return base.Predict(x)
	})
	for _, mode := range []Mode{StackMode, ResidualMode} {
		m, err := TrainCtx(context.Background(), train, am, Config{Mode: mode, NewML: smallML, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(22))
		n := 3*batchBlock + 10
		for _, tc := range []struct {
			name string
			bad  map[int][]float64 // row → replacement
		}{
			{"first block", map[int][]float64{5: {1, 1, -1}, batchBlock + 7: {1, 1}, 3 * batchBlock: {1, 1, -2}}},
			{"arity before refusal", map[int][]float64{batchBlock + 40: {1, 1}, batchBlock + 41: {1, 1, -1}, 2*batchBlock + 1: {1, 1, -3}}},
			{"last block", map[int][]float64{3*batchBlock + 9: {2, 2, -5}}},
			{"block seam", map[int][]float64{2 * batchBlock: {2, 2, -5}, 2*batchBlock + 1: {1}}},
		} {
			X := awkwardRows(rng, n)
			for i := range X {
				X[i][2] = math.Abs(X[i][2]) // only the planted rows are refused
			}
			first := n
			for i, x := range tc.bad {
				X[i] = x
				first = min(first, i)
			}
			_, wantErr := m.Predict(X[first])
			if wantErr == nil {
				t.Fatalf("%s: planted row %d scores", tc.name, first)
			}
			for _, workers := range []int{1, 2, 7} {
				got := make([]float64, n)
				for i := range got {
					got[i] = -12345
				}
				err := m.PredictBatchIntoCtx(context.Background(), X, got, workers)
				if err == nil || err.Error() != wantErr.Error() {
					t.Fatalf("%v %s workers=%d: error %q, want row %d's %q", mode, tc.name, workers, err, first, wantErr)
				}
				if errors.Is(wantErr, refused) != errors.Is(err, refused) || errors.Is(wantErr, lamerr.ErrDimension) != errors.Is(err, lamerr.ErrDimension) {
					t.Fatalf("%v %s workers=%d: error %q does not wrap what Predict's does", mode, tc.name, workers, err)
				}
				for i := 0; i < first; i++ {
					want, err := m.Predict(X[i])
					if err != nil {
						t.Fatal(err)
					}
					if !sameBits(got[i], want) {
						t.Fatalf("%v %s workers=%d: row %d before the failing row %d holds %x, want %x", mode, tc.name, workers, i, first, got[i], want)
					}
				}
			}
		}
	}
}

// TestBatchCancelledBetweenBlocks: a context cancelled while a block is
// being scored stops the batch at the next block boundary with the
// typed cancellation error, for every worker count; on one worker the
// finished block stays written and nothing past it is touched.
func TestBatchCancelledBetweenBlocks(t *testing.T) {
	train, base := syntheticWorkload(200, 31)
	const trigger = -7
	var cancel context.CancelFunc
	am := AnalyticalFunc(func(x []float64) (float64, error) {
		if x[2] == trigger {
			cancel()
			x = []float64{x[0], x[1], 0.5}
		}
		return base.Predict(x)
	})
	m, err := TrainCtx(context.Background(), train, am, Config{NewML: smallML, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	X := awkwardRows(rand.New(rand.NewSource(32)), 3*batchBlock)
	X[10][2] = trigger
	for _, workers := range []int{1, 2} {
		var ctx context.Context
		ctx, cancel = context.WithCancel(context.Background())
		got := make([]float64, len(X))
		for i := range got {
			got[i] = -12345
		}
		err := m.PredictBatchIntoCtx(ctx, X, got, workers)
		cancel()
		if !errors.Is(err, lamerr.ErrCancelled) || !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: error %v, want a cancellation wrapping lamerr.ErrCancelled and context.Canceled", workers, err)
		}
		if workers != 1 {
			continue
		}
		for i, v := range got {
			if written := v != -12345; written != (i < batchBlock) {
				t.Fatalf("row %d written = %v after a cancel inside block 0", i, written)
			}
		}
	}
}

// TestBatchAllocationFree: a warmed 512-row PredictBatchIntoCtx on one
// worker allocates nothing in any coupling mode — the augmented block
// and the ML component's column are pooled.
func TestBatchAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	train, am := syntheticWorkload(200, 41)
	X := awkwardRows(rand.New(rand.NewSource(42)), 2*batchBlock)
	out := make([]float64, len(X))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, mode := range []Mode{StackMode, ResidualMode, RatioMode} {
		m, err := TrainCtx(context.Background(), train, am, Config{Mode: mode, Aggregate: true, NewML: smallML, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(20, func() {
			if err := m.PredictBatchIntoCtx(ctx, X, out, 1); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("%v: PredictBatchIntoCtx allocates %.1f per 512-row batch, want 0", mode, allocs)
		}
	}
}

// TestAugBlockHoldsNoCallerRows: stack mode's pooled augmented block is
// bounded — at most batchBlock rows of p+1 floats — and its row views
// point only into its own flat array, so a scored batch is collectable
// once its caller drops it.
func TestAugBlockHoldsNoCallerRows(t *testing.T) {
	train, am := syntheticWorkload(200, 51)
	m, err := TrainCtx(context.Background(), train, am, Config{NewML: smallML, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	collected := make(chan string, 2)
	func() {
		X := awkwardRows(rand.New(rand.NewSource(52)), 2*batchBlock+1)
		runtime.SetFinalizer(&X[0], func(*[]float64) { collected <- "row headers" })
		runtime.SetFinalizer(&X[batchBlock][0], func(*float64) { collected <- "a row" })
		if err := m.PredictBatchIntoCtx(context.Background(), X, make([]float64, len(X)), 1); err != nil {
			t.Fatal(err)
		}
	}()
	blk := augBlockPool.Get().(*augBlock)
	if p := m.nFeatures + 1; cap(blk.flat) > batchBlock*p || cap(blk.rows) > batchBlock {
		t.Errorf("pooled block holds %d floats and %d rows, bound is %d and %d", cap(blk.flat), cap(blk.rows), batchBlock*p, batchBlock)
	}
	flat := blk.flat[:cap(blk.flat)]
	for i, row := range blk.rows[:cap(blk.rows)] {
		if len(row) > 0 && (len(flat) == 0 || !within(flat, &row[0])) {
			t.Fatalf("row view %d points outside the block's own flat array", i)
		}
	}
	augBlockPool.Put(blk)

	runtime.GC()
	runtime.GC()
	for seen := 0; seen < 2; {
		select {
		case <-collected:
			seen++
		case <-time.After(5 * time.Second):
			t.Fatalf("the scored batch is still reachable after two GCs (%d of 2 finalizers ran)", seen)
		}
	}
}

// within reports whether p addresses an element of s.
func within(s []float64, p *float64) bool {
	for i := range s {
		if &s[i] == p {
			return true
		}
	}
	return false
}
