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
// and the whole complement. walk is the sequential path below the rule
// (BatchBlock pieces through the tree-major or row-major walk), routed
// the kernel above it.
func BenchmarkRoutedHeldOut(b *testing.B) {
	for _, fit := range []struct {
		workload string
		k        int
	}{
		{"stencil-blocking", 32}, {"stencil-blocking", 65}, {"stencil-blocking", 130},
		{"stencil-blocking", 325}, {"stencil-blocking", 650}, {"fmm", 554}, {"fmm", 924},
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
		p := &Pipeline{Model: NewExtraTrees(100, 7)}
		p.Model.(*Forest).Workers = 1
		if err := p.Fit(train.X, train.Y); err != nil {
			b.Fatal(err)
		}
		e := ensembleOf(p)
		perTree := float64(e.NumNodes()) / float64(len(e.roots))
		sizes := []int{}
		for _, perNode := range []float64{0.5, 1, 2, 4, 8, 16, 32} {
			if n := int(perNode * perTree); n < rest.Len() {
				sizes = append(sizes, n)
			}
		}
		for _, n := range append(sizes, rest.Len()) {
			X := rest.X[:n]
			out := make([]float64, n)
			name := fmt.Sprintf("%s%d/perNode%.2g/rows%d", fit.workload, fit.k, float64(n)/perTree, n)
			b.Run(name+"/walk", func(b *testing.B) {
				b.ReportAllocs()
				for range b.N {
					predictSeq(p, X, out)
				}
				reportPerRow(b, n)
			})
			b.Run(name+"/routed", func(b *testing.B) {
				b.ReportAllocs()
				for range b.N {
					e.predictRouted(nil, &p.scaler, X, nil, out)
				}
				reportPerRow(b, n)
			})
		}
	}
}
