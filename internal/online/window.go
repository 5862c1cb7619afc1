package online

import (
	"lam/internal/ml"
)

// Sample is one ground-truth observation: the feature vector that was
// served, the prediction the deployed model gave for it, and the
// runtime that was then actually measured.
type Sample struct {
	X         []float64
	Predicted float64
	Observed  float64
}

// WindowStats is a point-in-time summary of a window.
type WindowStats struct {
	// Count is the number of samples currently held (≤ Capacity).
	Count int `json:"count"`
	// Capacity is the ring size.
	Capacity int `json:"capacity"`
	// MAPE is the rolling mean absolute percentage error of served
	// prediction vs. observation over the held samples, in percent
	// (zero-observation samples are skipped, as in ml.MAPE).
	MAPE float64 `json:"mape"`
	// Total is the lifetime number of samples ingested, including
	// those the ring has since overwritten and pre-reset history.
	Total uint64 `json:"total"`
}

// window is a bounded ring of the most recent samples for one model,
// stored flat: capacity×arity floats of features plus a predicted and
// an observed column, so ingesting a row copies it once and allocates
// nothing. The ring is sized on the first add; a row of another arity
// (a republished model with a new feature layout) clears and resizes
// it. It is not internally synchronised: the Plane guards each model's
// window with that model's state lock.
type window struct {
	capacity int
	arity    int
	x        []float64 // capacity×arity features, row-major
	pred     []float64
	obs      []float64
	next     int // ring write cursor
	count    int // samples held, ≤ capacity
	total    uint64
}

func newWindow(capacity int) *window {
	return &window{capacity: capacity}
}

// add appends one sample, overwriting the oldest once full. The feature
// vector is copied into the ring: callers hand in request-scoped rows.
func (w *window) add(x []float64, predicted, observed float64) {
	if w.pred == nil || len(x) != w.arity {
		w.arity = len(x)
		w.x = make([]float64, w.capacity*w.arity)
		w.pred = make([]float64, w.capacity)
		w.obs = make([]float64, w.capacity)
		w.next, w.count = 0, 0
	}
	copy(w.x[w.next*w.arity:], x)
	w.pred[w.next], w.obs[w.next] = predicted, observed
	w.next = (w.next + 1) % w.capacity
	if w.count < w.capacity {
		w.count++
	}
	w.total++
}

// stats recomputes the rolling MAPE over the held samples. An exact
// O(count) pass per call (not an incremental float sum, which would
// drift over unbounded streams); the mean is order-independent, so the
// ring is read in place — no per-call allocation on the ingest path.
func (w *window) stats() WindowStats {
	st := WindowStats{Count: w.count, Capacity: w.capacity, Total: w.total}
	sum, n := 0.0, 0
	for i := range w.count {
		ape, ok := ml.APE(w.obs[i], w.pred[i])
		if !ok {
			continue
		}
		sum += ape
		n++
	}
	if n > 0 {
		st.MAPE = sum / float64(n)
	}
	return st
}

// snapshot copies the held samples out, oldest first, into one
// allocation the caller owns — what the retrainer trains on after the
// state lock is released. A full ring's oldest sample sits at the write
// cursor.
func (w *window) snapshot() []Sample {
	out := make([]Sample, w.count)
	flat := make([]float64, w.count*w.arity)
	start := 0
	if w.count == w.capacity {
		start = w.next
	}
	for i := range out {
		r := (start + i) % w.capacity
		row := flat[i*w.arity : (i+1)*w.arity : (i+1)*w.arity]
		copy(row, w.x[r*w.arity:])
		out[i] = Sample{X: row, Predicted: w.pred[r], Observed: w.obs[r]}
	}
	return out
}

// reset discards the held samples (lifetime total is kept): called
// when a retrained model is published, so the window measures the new
// model from scratch instead of blending two models' errors.
func (w *window) reset() {
	w.next, w.count = 0, 0
}
