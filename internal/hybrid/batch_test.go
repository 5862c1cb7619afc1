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

	"lam/internal/dataset"
	"lam/internal/lamerr"
	"lam/internal/machine"
	"lam/internal/ml"
	"lam/internal/workload"
)

// batchSizes are the batch sizes the block path is swept over: the
// kernel's lane tails (n mod 4) and one row either side of the
// ml.BatchBlock seams.
var batchSizes = []int{0, 1, 3, 4, 5, 7, 8, 9, ml.BatchBlock - 1, ml.BatchBlock, ml.BatchBlock + 1, 2*ml.BatchBlock + 1}

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
// block path: with and without the aggregate, under every batch size
// and worker count, PredictBatchIntoCtx writes
// exactly — math.Float64bits — what a per-row Predict loop returns,
// with and without a cancellable context.
func TestBatchPathMatchesPerRow(t *testing.T) {
	train, am := syntheticWorkload(300, 11)
	rng := rand.New(rand.NewSource(12))
	Xq := awkwardRows(rng, batchSizes[len(batchSizes)-1])
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	want := make([]float64, len(Xq))
	for _, agg := range []bool{false, true} {
		m, err := TrainCtx(context.Background(), train, am, Config{Aggregate: agg, NewML: smallML, Workers: 1})
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
						t.Fatalf("agg=%v n=%d workers=%d: %v", agg, n, workers, err)
					}
					for i := range got {
						if !sameBits(got[i], want[i]) {
							t.Fatalf("agg=%v n=%d workers=%d row %d (%v): block path %x != Predict %x",
								agg, n, workers, i, Xq[i], got[i], want[i])
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
	m, err := TrainCtx(context.Background(), train, am, Config{NewML: smallML, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(22))
	n := 3*ml.BatchBlock + 10
	for _, tc := range []struct {
		name string
		bad  map[int][]float64 // row → replacement
	}{
		{"first block", map[int][]float64{5: {1, 1, -1}, ml.BatchBlock + 7: {1, 1}, 3 * ml.BatchBlock: {1, 1, -2}}},
		{"arity before refusal", map[int][]float64{ml.BatchBlock + 40: {1, 1}, ml.BatchBlock + 41: {1, 1, -1}, 2*ml.BatchBlock + 1: {1, 1, -3}}},
		{"last block", map[int][]float64{3*ml.BatchBlock + 9: {2, 2, -5}}},
		{"block seam", map[int][]float64{2 * ml.BatchBlock: {2, 2, -5}, 2*ml.BatchBlock + 1: {1}}},
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
				t.Fatalf("%s workers=%d: error %q, want row %d's %q", tc.name, workers, err, first, wantErr)
			}
			if errors.Is(wantErr, refused) != errors.Is(err, refused) || errors.Is(wantErr, lamerr.ErrDimension) != errors.Is(err, lamerr.ErrDimension) {
				t.Fatalf("%s workers=%d: error %q does not wrap what Predict's does", tc.name, workers, err)
			}
			for i := 0; i < first; i++ {
				want, err := m.Predict(X[i])
				if err != nil {
					t.Fatal(err)
				}
				if !sameBits(got[i], want) {
					t.Fatalf("%s workers=%d: row %d before the failing row %d holds %x, want %x", tc.name, workers, i, first, got[i], want)
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
	X := awkwardRows(rand.New(rand.NewSource(32)), 3*ml.BatchBlock)
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
			if written := v != -12345; written != (i < ml.BatchBlock) {
				t.Fatalf("row %d written = %v after a cancel inside block 0", i, written)
			}
		}
	}
}

// TestBatchAllocationFree: a warmed 512-row PredictBatchIntoCtx on one
// worker allocates nothing, with and without the aggregate — the augmented block
// and the ML component's column are pooled, and the analytical models
// of the catalogue allocate nothing per row either. It runs over the
// synthetic workload and over the paper's stencil-blocking and FMM
// workloads with their real analytical models.
func TestBatchAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	type load struct {
		name  string
		train *dataset.Dataset
		am    AnalyticalModel
		X     [][]float64
	}
	// The real workloads are wider than the synthetic one: empty the
	// pools afterwards (two GCs drop a sync.Pool's contents), so a later
	// test bounding a pooled block by its own arity sees its own blocks.
	t.Cleanup(func() { runtime.GC(); runtime.GC() })
	train, am := syntheticWorkload(200, 41)
	loads := []load{{"synthetic", train, am, awkwardRows(rand.New(rand.NewSource(42)), 2*ml.BatchBlock)}}
	for _, name := range []string{"stencil-blocking", "fmm"} {
		w, err := workload.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		ds, err := w.Dataset(machine.BlueWatersXE6(), 42)
		if err != nil {
			t.Fatal(err)
		}
		train, rest, err := ds.SampleN(200, rand.New(rand.NewSource(43)))
		if err != nil {
			t.Fatal(err)
		}
		loads = append(loads, load{name, train, w.AM(machine.BlueWatersXE6()), rest.X[:2*ml.BatchBlock]})
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, l := range loads {
		out := make([]float64, len(l.X))
		for _, agg := range []bool{false, true} {
			m, err := TrainCtx(context.Background(), l.train, l.am, Config{Aggregate: agg, NewML: smallML, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			if allocs := testing.AllocsPerRun(20, func() {
				if err := m.PredictBatchIntoCtx(ctx, l.X, out, 1); err != nil {
					t.Fatal(err)
				}
			}); allocs != 0 {
				t.Errorf("%s agg=%v: PredictBatchIntoCtx allocates %.1f per 512-row batch, want 0", l.name, agg, allocs)
			}
		}
	}
}

// TestAugBlockHoldsNoCallerRows: the pooled augmented block is
// bounded — at most ml.BatchBlock rows of p+1 floats — and its row views
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
		X := awkwardRows(rand.New(rand.NewSource(52)), 2*ml.BatchBlock+1)
		runtime.SetFinalizer(&X[0], func(*[]float64) { collected <- "row headers" })
		runtime.SetFinalizer(&X[ml.BatchBlock][0], func(*float64) { collected <- "a row" })
		if err := m.PredictBatchIntoCtx(context.Background(), X, make([]float64, len(X)), 1); err != nil {
			t.Fatal(err)
		}
	}()
	blk := augBlockPool.Get().(*augBlock)
	if p := m.nFeatures + 1; cap(blk.flat) > ml.BatchBlock*p || cap(blk.rows) > ml.BatchBlock {
		t.Errorf("pooled block holds %d floats and %d rows, bound is %d and %d", cap(blk.flat), cap(blk.rows), ml.BatchBlock*p, ml.BatchBlock)
	}
	flat := blk.flat[:cap(blk.flat)]
	for i, row := range blk.rows[:cap(blk.rows)] {
		if len(row) > 0 && (len(flat) == 0 || !within(flat, &row[0])) {
			t.Fatalf("row view %d points outside the block's own flat array", i)
		}
	}
	augBlockPool.Put(blk)

	// The row headers point at the row, so the runtime runs their
	// finalizers in dependency order: the row's is queued only by a
	// collection that starts after the headers' finalizer has run. Two
	// back-to-back collections can both precede it, so collect until
	// both have run; a batch the pool really holds stays reachable
	// through every collection.
	deadline := time.Now().Add(5 * time.Second)
	for seen := 0; seen < 2; {
		runtime.GC()
		select {
		case <-collected:
			seen++
		case <-time.After(10 * time.Millisecond):
			if time.Now().After(deadline) {
				t.Fatalf("the scored batch is still reachable after 5 s of collections (%d of 2 finalizers ran)", seen)
			}
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
