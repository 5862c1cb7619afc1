package ml

import (
	"math/rand"
	"testing"
)

// The three model shapes the batch path is tuned on: the benchmark's
// et-large (100 fully grown extra trees on a few thousand rows, about
// half a million nodes — far past L2), the paper's hybrid (the same
// forest on a 4 % sample, ~25 k nodes — L2-resident) and a shallow
// random forest (100 trees of depth 3, ~1.5 k nodes — L1-resident).
var batchShapes = []struct {
	name  string
	train int
	model func() Regressor
}{
	{"et-large-sized", 2600, func() Regressor {
		return &Forest{NTrees: 100, Tree: TreeConfig{Splitter: RandomSplitter}, Seed: 7, Workers: 1}
	}},
	{"hybrid-sized", 130, func() Regressor {
		return &Forest{NTrees: 100, Tree: TreeConfig{Splitter: RandomSplitter}, Seed: 7, Workers: 1}
	}},
	{"rf100x3", 400, func() Regressor {
		return &Forest{NTrees: 100, Tree: TreeConfig{MaxDepth: 3}, Bootstrap: true, Seed: 7, Workers: 1}
	}},
}

// fitBatchShape fits shape s inside a scaling pipeline (what the
// system serves) and returns it with 512 query rows.
func fitBatchShape(b *testing.B, s int) (*Pipeline, [][]float64) {
	b.Helper()
	rng := rand.New(rand.NewSource(42))
	X, y := randomRegression(rng, batchShapes[s].train, 6)
	Xq, _ := randomRegression(rng, 512, 6)
	p := &Pipeline{Model: batchShapes[s].model()}
	if err := p.Fit(X, y); err != nil {
		b.Fatal(err)
	}
	return p, Xq
}

// ensembleOf returns the fused table under a pipeline's forest.
func ensembleOf(p *Pipeline) *CompiledEnsemble { return p.Model.(*Forest).compiled }

func reportPerRow(b *testing.B, rows int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(rows), "ns/row")
}

// BenchmarkBatchPath pairs the two ways a wrapped model can score 512
// rows on one core: "perrow" is the pre-block wrapper behaviour (scale
// one row, walk the whole ensemble for it), "block" is PredictBatchInto
// (scale a block, hand it to the tree-major kernel). Both are
// bit-identical (TestBatchPathMatchesPerRow).
func BenchmarkBatchPath(b *testing.B) {
	for s, shape := range batchShapes {
		p, Xq := fitBatchShape(b, s)
		out := make([]float64, len(Xq))
		b.Run("perrow/"+shape.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for r, x := range Xq {
					out[r] = p.Predict(x)
				}
			}
			reportPerRow(b, len(Xq))
		})
		b.Run("block/"+shape.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := PredictBatchInto(p, Xq, out, 1); err != nil {
					b.Fatal(err)
				}
			}
			reportPerRow(b, len(Xq))
		})
	}
}

// hotTreeRows8 is predictHotTreeRows with eight register lanes instead
// of four — the alternative BenchmarkLanes weighs the committed lane
// count against.
func hotTreeRows8(hot []hotNode, r int32, X [][]float64, out []float64) {
	out = out[:len(X)]
	root := hot[r]
	g := 0
	for ; g+8 <= len(X); g += 8 {
		x0, x1, x2, x3, x4, x5, x6, x7 := X[g], X[g+1], X[g+2], X[g+3], X[g+4], X[g+5], X[g+6], X[g+7]
		i0, i1, i2, i3, i4, i5, i6, i7 := r, r, r, r, r, r, r, r
		n0, n1, n2, n3, n4, n5, n6, n7 := root, root, root, root, root, root, root, root
		for n0.feature&n1.feature&n2.feature&n3.feature&n4.feature&n5.feature&n6.feature&n7.feature >= 0 {
			if n0.feature >= 0 {
				i0 = hotStep(i0, n0, x0)
				n0 = hot[i0]
			}
			if n1.feature >= 0 {
				i1 = hotStep(i1, n1, x1)
				n1 = hot[i1]
			}
			if n2.feature >= 0 {
				i2 = hotStep(i2, n2, x2)
				n2 = hot[i2]
			}
			if n3.feature >= 0 {
				i3 = hotStep(i3, n3, x3)
				n3 = hot[i3]
			}
			if n4.feature >= 0 {
				i4 = hotStep(i4, n4, x4)
				n4 = hot[i4]
			}
			if n5.feature >= 0 {
				i5 = hotStep(i5, n5, x5)
				n5 = hot[i5]
			}
			if n6.feature >= 0 {
				i6 = hotStep(i6, n6, x6)
				n6 = hot[i6]
			}
			if n7.feature >= 0 {
				i7 = hotStep(i7, n7, x7)
				n7 = hot[i7]
			}
		}
		o := out[g : g+8 : g+8]
		o[0] += n0.threshold
		o[1] += n1.threshold
		o[2] += n2.threshold
		o[3] += n3.threshold
		o[4] += n4.threshold
		o[5] += n5.threshold
		o[6] += n6.threshold
		o[7] += n7.threshold
	}
	for ; g < len(X); g++ {
		out[g] += predictHot(hot, r, X[g])
	}
}

// BenchmarkLanes is the committed number the lane form and count rest
// on, at the kernel (pre-scaled rows, no wrapper): the tree-major batch
// walk with the array lanes it replaced (the refHot* spec), the
// register lanes it has now, and eight of them; then the single-row
// walk, array lanes against register lanes.
func BenchmarkLanes(b *testing.B) {
	for s, shape := range batchShapes {
		p, Xq := fitBatchShape(b, s)
		e := ensembleOf(p)
		scaled := make([][]float64, len(Xq))
		for i, x := range Xq {
			scaled[i] = make([]float64, len(x))
			p.scaler.transformInto(x, scaled[i])
		}
		out := make([]float64, len(scaled))
		batch := func(name string, walk func(hot []hotNode, r int32, X [][]float64, out []float64)) {
			b.Run(name+"/"+shape.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					for _, r := range e.roots {
						walk(e.hot, r, scaled, out)
					}
				}
				reportPerRow(b, len(scaled))
			})
		}
		batch("batch-array4", refHotTreeRows)
		batch("batch4", predictHotTreeRows)
		batch("batch8", hotTreeRows8)
		single := func(name string, walk func(x []float64) float64) {
			b.Run(name+"/"+shape.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					for r, x := range scaled {
						out[r] = walk(x)
					}
				}
				reportPerRow(b, len(scaled))
			})
		}
		single("single-array4", func(x []float64) float64 { return refHotInterleaved(e, x) })
		single("single4", e.predictHotInterleaved)
	}
}
