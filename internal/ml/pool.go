package ml

import "sync"

// f64Pool recycles scratch vectors for the single-row work the compound
// estimators do at prediction time (a scaled feature row in Pipeline,
// the stacked analytical feature in internal/hybrid) and for the
// per-block columns of their batch paths. Predict must stay safe for concurrent use, so the
// scratch cannot live on the estimator; pooling keeps the serve hot
// path allocation-free in steady state. The pool stores *[]float64
// (not []float64) so Get/Put never box a slice header.
var f64Pool = sync.Pool{New: func() any { return new([]float64) }}

// GetScratch returns a length-n scratch vector from the shared pool.
// Contents are undefined; release with PutScratch.
func GetScratch(n int) *[]float64 {
	p := f64Pool.Get().(*[]float64)
	if cap(*p) < n {
		*p = make([]float64, n)
	}
	*p = (*p)[:n]
	return p
}

// PutScratch returns a scratch vector to the pool.
func PutScratch(p *[]float64) { f64Pool.Put(p) }

// rowBlock is the pooled row block a wrapper's batch path transforms
// its input into before handing it to the inner model: one flat
// backing array and the row views over it. The views never point
// anywhere else, so a pooled block keeps no caller's rows alive, and
// it holds at most BatchBlock rows because every wrapper chunks.
type rowBlock struct {
	flat []float64
	rows [][]float64
}

var rowBlockPool = sync.Pool{New: func() any { return new(rowBlock) }}

// getRowBlock returns a pooled block of n rows of p features each
// (n <= BatchBlock). Contents are undefined; release with
// putRowBlock.
func getRowBlock(n, p int) *rowBlock {
	b := rowBlockPool.Get().(*rowBlock)
	if cap(b.flat) < n*p {
		b.flat = make([]float64, n*p)
	}
	b.flat = b.flat[:n*p]
	if cap(b.rows) < n {
		b.rows = make([][]float64, n)
	}
	b.rows = b.rows[:n]
	for i := range b.rows {
		b.rows[i] = b.flat[i*p : (i+1)*p : (i+1)*p]
	}
	return b
}

func putRowBlock(b *rowBlock) { rowBlockPool.Put(b) }
