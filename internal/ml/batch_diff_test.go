package ml

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"
	"unsafe"
)

// The array-lane lockstep walks the register-lane kernels in
// compiled.go replaced, retained verbatim as their executable
// specification: refLanes cursors and leaf values in stack arrays,
// stepped by an inner lane loop. predictHotTreeRows and
// predictHotInterleaved must produce exactly what this pair does.

const refLanes = 4

func refHotInterleaved(e *CompiledEnsemble, x []float64) float64 {
	hot, roots := e.hot, e.roots
	var idx [refLanes]int32
	var val [refLanes]float64
	out := 0.0
	for g := 0; g < len(roots); g += refLanes {
		m := len(roots) - g
		if m > refLanes {
			m = refLanes
		}
		for l := 0; l < m; l++ {
			idx[l] = roots[g+l]
		}
		for active := m; active > 0; {
			active = 0
			for l := 0; l < m; l++ {
				i := idx[l]
				n := hot[i]
				if n.feature < 0 {
					val[l] = n.threshold
					continue
				}
				active++
				goLeft := -b2i32(x[n.feature] <= n.threshold)
				idx[l] = n.right + ((i + 1 - n.right) & goLeft)
			}
		}
		for l := 0; l < m; l++ {
			out += val[l]
		}
	}
	return out / float64(len(roots))
}

func refHotTreeRows(hot []hotNode, r int32, X [][]float64, out []float64) {
	var idx [refLanes]int32
	var val [refLanes]float64
	for g := 0; g < len(X); g += refLanes {
		m := len(X) - g
		if m > refLanes {
			m = refLanes
		}
		for l := 0; l < m; l++ {
			idx[l] = r
		}
		for active := m; active > 0; {
			active = 0
			for l := 0; l < m; l++ {
				i := idx[l]
				n := hot[i]
				if n.feature < 0 {
					val[l] = n.threshold
					continue
				}
				active++
				x := X[g+l]
				goLeft := -b2i32(x[n.feature] <= n.threshold)
				idx[l] = n.right + ((i + 1 - n.right) & goLeft)
			}
		}
		for l := 0; l < m; l++ {
			out[g+l] += val[l]
		}
	}
}

// diffSizes are the batch sizes the differential tests sweep: the lane
// tails (n mod 4), one row either side of a group, and one row either
// side of the BatchBlock seams.
var diffSizes = []int{0, 1, 3, 4, 5, 7, 8, 9, BatchBlock - 1, BatchBlock, BatchBlock + 1, 2*BatchBlock + 1}

// splitPoint is a (feature, threshold) pair some model splits on.
type splitPoint struct {
	feature int32
	value   float64
}

// awkwardRows returns n rows of p features drawn like randomRegression's
// (multiples of 0.25), a third of them carrying what a comparison-based
// walk can mishandle: NaN, ±Inf, −0 or a denormal in a random feature,
// or a feature set exactly to a threshold from splits.
func awkwardRows(rng *rand.Rand, n, p int, splits []splitPoint) [][]float64 {
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 5e-324, -1e-310}
	X := make([][]float64, n)
	for i := range X {
		X[i] = make([]float64, p)
		for j := range X[i] {
			X[i][j] = math.Round(rng.NormFloat64()*8) / 4
		}
		switch rng.Intn(6) {
		case 0:
			X[i][rng.Intn(p)] = special[rng.Intn(len(special))]
		case 1:
			if len(splits) > 0 {
				sp := splits[rng.Intn(len(splits))]
				X[i][sp.feature] = sp.value
			}
		}
	}
	return X
}

// shallowSplits collects the split points within the first few preorder
// nodes of every tree of e — the root and its left spine, which most
// rows reach.
func shallowSplits(e *CompiledEnsemble) []splitPoint {
	var splits []splitPoint
	for t, root := range e.roots {
		for i := root; i < min(root+4, e.treeEnd(t)); i++ {
			if n := e.hot[i]; n.feature >= 0 {
				splits = append(splits, splitPoint{n.feature, n.threshold})
			}
		}
	}
	return splits
}

// TestLaneKernelsMatchArraySpec pins the register-lane walks to the
// array-lane spec above, bit for bit, on forests of 1–9 trees (every trees-mod-4 tail of the single-row walk) over every
// row count in diffSizes rounded down to the kernel's multiple of four
// — on rows that sit exactly on thresholds and carry NaN, ±Inf, −0 and
// denormals.
func TestLaneKernelsMatchArraySpec(t *testing.T) {
	rng := rand.New(rand.NewSource(0x1a9e5))
	for trees := 1; trees <= 9; trees++ {
		p := 1 + rng.Intn(6)
		X, y := randomRegression(rng, 60+rng.Intn(200), p)
		f := &Forest{NTrees: trees, Tree: randomTreeConfig(rng), Bootstrap: trees%2 == 0, Seed: rng.Int63(), Workers: 1}
		if err := f.Fit(X, y); err != nil {
			t.Fatal(err)
		}
		e := f.compiled
		Xq := awkwardRows(rng, diffSizes[len(diffSizes)-1], p, shallowSplits(e))
		for _, x := range Xq {
			if got, want := e.predictHotInterleaved(x), refHotInterleaved(e, x); !sameBits(got, want) {
				t.Fatalf("%d trees, row %v: single-row walk %x != array-lane spec %x", trees, x, got, want)
			}
		}
		for _, n := range diffSizes {
			n &^= 3
			got, want := make([]float64, n), make([]float64, n)
			for i := range got {
				got[i], want[i] = float64(i), float64(i) // the kernel accumulates into out
			}
			for _, r := range e.roots {
				predictHotTreeRows(e.hot, r, Xq[:n], got)
				refHotTreeRows(e.hot, r, Xq[:n], want)
			}
			for i := range got {
				if !sameBits(got[i], want[i]) {
					t.Fatalf("%d trees, %d rows, row %d: batch walk %x != array-lane spec %x", trees, n, i, got[i], want[i])
				}
			}
		}
	}
}

// diffModel is one estimator of the differential sweep.
type diffModel struct {
	name string
	r    Regressor
}

// rowOnly hides its inner model's batch walk: a pipeline over it
// meets a regressor it can only score row by row, as the batch entry
// points do any Regressor implemented outside this package.
type rowOnly struct{ Regressor }

// diffModels fits every wrapper nesting the block path serves — a
// pipeline over each inner estimator (with and without a batch walk of
// its own), a pipeline over a pipeline, and the bare ensembles — on
// (X, y). The large forest is past batchTreeMajorMinNodes, the small
// one under it.
func diffModels(t *testing.T, X [][]float64, y []float64) []diffModel {
	t.Helper()
	tree := func() Regressor { return NewDecisionTree(TreeConfig{Seed: 2, MaxDepth: 6}) }
	forest := func() Regressor {
		return &Forest{NTrees: 21, Tree: TreeConfig{Splitter: RandomSplitter}, Seed: 5, Workers: 1}
	}
	small := func() Regressor {
		return &Forest{NTrees: 13, Tree: TreeConfig{MaxDepth: 3}, Bootstrap: true, Seed: 6, Workers: 1}
	}
	models := []diffModel{
		{"forest", forest()},
		{"forest/small", small()},
		{"pipeline/tree", &Pipeline{Model: tree()}},
		{"pipeline/forest", &Pipeline{Model: forest()}},
		{"pipeline/small", &Pipeline{Model: small()}},
		{"pipeline/row-only", &Pipeline{Model: rowOnly{tree()}}},
		{"pipeline/pipeline", &Pipeline{Model: &Pipeline{Model: forest()}}},
	}
	for _, m := range models {
		if err := m.r.Fit(X, y); err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
	}
	if n := models[0].r.(*Forest).compiled.NumNodes(); n < batchTreeMajorMinNodes {
		t.Fatalf("forest has %d nodes, under the tree-major cutoff %d", n, batchTreeMajorMinNodes)
	}
	if n := models[1].r.(*Forest).compiled.NumNodes(); n >= batchTreeMajorMinNodes {
		t.Fatalf("small forest has %d nodes, not under the tree-major cutoff %d", n, batchTreeMajorMinNodes)
	}
	return models
}

// TestBatchPathMatchesPerRow is the differential test of the block
// path: for every wrapper nesting, every size in diffSizes and 1, 2 and
// 7 workers, PredictBatchInto and the cancellable PredictBatchIntoCtx
// produce exactly — math.Float64bits — what a per-row Predict loop
// does, on awkwardRows.
func TestBatchPathMatchesPerRow(t *testing.T) {
	rng := rand.New(rand.NewSource(0xb10c))
	const p = 5
	X, y := randomRegression(rng, 400, p)
	models := diffModels(t, X, y)
	// The bare ensembles split on raw features, so their thresholds can
	// be planted exactly; behind a scaler exact hits are left to the
	// quarter-step grid the rows and the training set share.
	splits := append(shallowSplits(models[0].r.(*Forest).compiled), shallowSplits(models[1].r.(*Forest).compiled)...)
	Xq := awkwardRows(rng, diffSizes[len(diffSizes)-1], p, splits)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	want := make([]float64, len(Xq))
	for _, m := range models {
		for i, x := range Xq {
			want[i] = m.r.Predict(x)
		}
		for _, n := range diffSizes {
			for _, workers := range []int{1, 2, 7} {
				got := make([]float64, n)
				check := func(entry string, err error) {
					t.Helper()
					if err != nil {
						t.Fatalf("%s %s n=%d workers=%d: %v", m.name, entry, n, workers, err)
					}
					for i := range got {
						if !sameBits(got[i], want[i]) {
							t.Fatalf("%s %s n=%d workers=%d row %d (%v): block path %x != per-row %x",
								m.name, entry, n, workers, i, Xq[i], got[i], want[i])
						}
						got[i] = -1
					}
				}
				check("PredictBatchInto", PredictBatchInto(m.r, Xq[:n], got, workers))
				check("PredictBatchIntoCtx", PredictBatchIntoCtx(ctx, m.r, Xq[:n], got, workers))
			}
		}
	}
}

// TestPooledBlocksHoldNoCallerRows: the wrappers' pooled row blocks are
// bounded by construction — at most BatchBlock rows, because wrappers
// chunk — and their row views point only into the block's own flat
// array, so a served batch is collectable as soon as its caller drops
// it, whatever the pool keeps.
func TestPooledBlocksHoldNoCallerRows(t *testing.T) {
	rng := rand.New(rand.NewSource(0x9001))
	const p = 5
	X, y := randomRegression(rng, 200, p)
	models := diffModels(t, X, y)

	collected := make(chan string, 2)
	func() {
		Xq := awkwardRows(rng, 2*BatchBlock+1, p, nil)
		runtime.SetFinalizer(&Xq[0], func(*[]float64) { collected <- "row headers" })
		runtime.SetFinalizer(&Xq[BatchBlock][0], func(*float64) { collected <- "a row" })
		out := make([]float64, len(Xq))
		for _, m := range models {
			if err := PredictBatchInto(m.r, Xq, out, 1); err != nil {
				t.Fatalf("%s: %v", m.name, err)
			}
		}
	}()

	// White box: whatever blocks the pool hands back are within the
	// bound and self-contained. A pipeline's block is p features wide.
	held := make([]*rowBlock, 4)
	for i := range held {
		b := rowBlockPool.Get().(*rowBlock)
		held[i] = b
		if cap(b.flat) > BatchBlock*p || cap(b.rows) > BatchBlock {
			t.Errorf("pooled block holds %d floats and %d rows, bound is %d and %d", cap(b.flat), cap(b.rows), BatchBlock*p, BatchBlock)
		}
		flat := b.flat[:cap(b.flat)]
		for j, row := range b.rows[:cap(b.rows)] {
			if len(row) == 0 {
				continue
			}
			lo, hi := uintptr(unsafe.Pointer(&flat[0])), uintptr(unsafe.Pointer(&flat[len(flat)-1]))
			if at := uintptr(unsafe.Pointer(&row[0])); at < lo || at > hi {
				t.Fatalf("pooled block %d: row view %d points outside the block's own flat array", i, j)
			}
		}
	}
	for _, b := range held {
		putRowBlock(b)
	}

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
