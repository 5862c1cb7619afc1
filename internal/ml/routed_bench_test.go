package ml

import (
	"fmt"
	"math/rand"
	"testing"

	"lam/internal/machine"
	"lam/internal/workload"
)

// BenchmarkRoutedHeldOut is the crossover of the routed kernel against
// the walks, on the paper's own shapes: a 100-tree extra-trees pipeline
// fitted on k rows of stencil-blocking (3 249 rows; fig6 samples 1, 2
// and 4 % of it, fig3a up to 10 %) or of fmm (3 696 rows; fig8 samples
// 15 to 25 %) scores rows of the complement, on one core, at 0.5 to 32
// rows per node of the average tree — the quantity routes decides on —
// and the whole complement. The stacked fits are the hybrid's ML
// component on fmm: the pipeline fitted on the four features plus the
// analytical model's prediction, scored as the hybrid scores (the
// routed kernel reads the prediction as a stacked column, the walk
// reads augmented rows). walk is the sequential path below the rule
// (BatchBlock pieces through the tree-major or row-major walk), routed
// the kernel above it.
func BenchmarkRoutedHeldOut(b *testing.B) {
	for _, fit := range []struct {
		workload string
		k        int
		stacked  bool
	}{
		{"stencil-blocking", 32, false}, {"stencil-blocking", 65, false}, {"stencil-blocking", 130, false},
		{"stencil-blocking", 325, false}, {"stencil-blocking", 650, false}, {"fmm", 554, false}, {"fmm", 924, false},
		{"fmm", 554, true}, {"fmm", 739, true}, {"fmm", 924, true},
	} {
		w, err := workload.Lookup(fit.workload)
		if err != nil {
			b.Fatal(err)
		}
		ds, err := w.Dataset(machine.BlueWatersXE6(), 42)
		if err != nil {
			b.Fatal(err)
		}
		train, rest, err := ds.SampleN(fit.k, rand.New(rand.NewSource(int64(fit.k))))
		if err != nil {
			b.Fatal(err)
		}
		trainX, restX := train.X, rest.X
		var stacked []float64
		name := fmt.Sprintf("%s%d", fit.workload, fit.k)
		if fit.stacked {
			am := w.AM(machine.BlueWatersXE6())
			trainX, _ = stackAM(b, am, train.X)
			restX, stacked = stackAM(b, am, rest.X)
			name += "stacked"
		}
		p := &Pipeline{Model: NewExtraTrees(100, 7)}
		p.Model.(*Forest).Workers = 1
		if err := p.Fit(trainX, train.Y); err != nil {
			b.Fatal(err)
		}
		e := ensembleOf(p)
		perTree := float64(e.NumNodes()) / float64(len(e.roots))
		sizes := []int{}
		for _, perNode := range []float64{0.5, 1, 1.5, 2, 4, 8, 16, 32} {
			if n := int(perNode * perTree); n < rest.Len() {
				sizes = append(sizes, n)
			}
		}
		for _, n := range append(sizes, rest.Len()) {
			out := make([]float64, n)
			name := fmt.Sprintf("%s/perNode%.2g/rows%d", name, float64(n)/perTree, n)
			b.Run(name+"/walk", func(b *testing.B) {
				b.ReportAllocs()
				for range b.N {
					predictSeq(p, restX[:n], out)
				}
				reportPerRow(b, n)
			})
			b.Run(name+"/routed", func(b *testing.B) {
				b.ReportAllocs()
				var col []float64
				if stacked != nil {
					col = stacked[:n]
				}
				for range b.N {
					e.predictRouted(nil, &p.scaler, rest.X[:n], col, out)
				}
				reportPerRow(b, n)
			})
		}
	}
}

// stackAM returns X's rows with am's prediction appended, and the
// predictions.
func stackAM(b *testing.B, am *workload.AM, X [][]float64) ([][]float64, []float64) {
	aug, col := make([][]float64, len(X)), make([]float64, len(X))
	for i, x := range X {
		v, err := am.Predict(x)
		if err != nil {
			b.Fatal(err)
		}
		aug[i], col[i] = append(append([]float64(nil), x...), v), v
	}
	return aug, col
}
