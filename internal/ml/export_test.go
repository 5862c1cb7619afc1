package ml

import "math"

// Friedman1 is friedman1 for the package's external tests.
var Friedman1 = friedman1

// HeldTables returns how many walk tables tb holds.
func HeldTables(tb *Tables) int {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	return len(tb.free)
}

// Importances returns a copy of the member importances of a fitted
// Forest or DecisionTree, or of a Pipeline over one.
func Importances(r Regressor) [][]float64 {
	var trees []*DecisionTree
	switch m := r.(type) {
	case *Pipeline:
		return Importances(m.Model)
	case *Forest:
		trees = m.trees
	case *DecisionTree:
		trees = []*DecisionTree{m}
	}
	out := make([][]float64, len(trees))
	for t, tree := range trees {
		out[t] = append([]float64(nil), tree.importances...)
	}
	return out
}

// PoisonTables overwrites every buffer tb holds to lend, to its full
// capacity: floats become NaN, indices and counts -1, records stale
// leaves predicting NaN, pointers nil. A fit or a batch that reads
// anything it did not write first then scores or sizes wrongly, or
// panics. It must not run while a fit holds memory of tb.
func PoisonTables(tb *Tables) {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	for _, h := range tb.free {
		h = h[:cap(h)]
		for i := range h {
			h[i] = hotNode{threshold: math.NaN(), feature: -1}
		}
	}
	for _, l := range tb.leases {
		nan(l.flat)
		cols := l.cols[:cap(l.cols)]
		for j := range cols {
			cols[j] = nan(make([]float64, len(cols[j])))
		}
		minusOne(l.class)
		minusOne(l.order)
		minusOne(l.bounds)
		slab := l.slab[:cap(l.slab)]
		for i := range slab {
			slab[i] = DecisionTree{nFeatures: -1, importances: nan(make([]float64, 1))}
		}
		clear(l.trees[:cap(l.trees)])
		nan(l.imps)
		minusOne(l.slots)
		minusOne(l.sizes)
	}
	for _, b := range tb.builders {
		minusOne(b.idx)
		minusOne(b.tmp)
		minusOne(b.featBuf)
		scratch := b.scratch[:cap(b.scratch)]
		for i := range scratch {
			scratch[i] = splitSample{math.NaN(), math.NaN()}
		}
	}
}

// nan fills s to its capacity with NaN and returns it.
func nan(s []float64) []float64 {
	s = s[:cap(s)]
	for i := range s {
		s[i] = math.NaN()
	}
	return s
}

// minusOne fills s to its capacity with -1.
func minusOne[T int | int32](s []T) {
	s = s[:cap(s)]
	for i := range s {
		s[i] = -1
	}
}
