package ml

import (
	"context"
	"sync"
)

// Tables is reusable walk-table memory for fits whose models live only
// as long as one call: the trials of a sweep, which fit, score their
// held-out rows and keep nothing but the score. Such a fit grows its
// trees into a table taken from the list and hands it back once the
// model is unfitted (FitScore), so a sweep allocates a table per fit
// in flight instead of one per fit. The zero value is ready and holds
// none; dropping a Tables drops every table in it. It is safe for
// concurrent use, and it holds at most as many tables as fits ever ran
// on it at once.
//
// The list ratchets to the largest table asked for so far: a request
// past it lets go of every table it holds, and a table handed back
// smaller than it is let go too, so every table kept fits every
// request yet seen. A sweep that fits its largest training sets first
// allocates each of its tables once.
type Tables struct {
	mu   sync.Mutex
	free [][]hotNode
	high int // the most records any fit asked for
}

// take returns a table of n records, reused when the list holds one and
// otherwise made as large as the high-water mark, so that a fit's
// table, like the ones kept, fits every request yet seen. Its records
// are stale: a fit writes every one it reads.
func (tb *Tables) take(n int) []hotNode {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	if n > tb.high {
		tb.high = n
		clear(tb.free)
		tb.free = tb.free[:0]
	}
	if k := len(tb.free) - 1; k >= 0 {
		h := tb.free[k]
		tb.free[k] = nil
		tb.free = tb.free[:k]
		return h[:n]
	}
	return make([]hotNode, n, tb.high)
}

// give hands a table back to the list, or lets it go when it is below
// the high-water mark.
func (tb *Tables) give(h []hotNode) {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	if cap(h) >= tb.high {
		tb.free = append(tb.free, h[:0])
	}
}

// lease is one FitScore call's claim on its Tables: the tables its fit
// took, all handed back once the model is unfitted.
type lease struct {
	tb    *Tables
	taken [][]hotNode
}

// table takes a table of n records for the fit in progress.
func (l *lease) table(n int) []hotNode {
	h := l.tb.take(n)
	l.taken = append(l.taken, h)
	return h
}

// leasedFitter is implemented by the estimators whose fit grows walk
// tables. fitLeased is the estimator's one fit body: FitCtx (Fit for a
// DecisionTree) calls it with a nil lease, which allocates the exact
// tables a kept model needs, and FitScore with a lease on its Tables.
// unfit returns the estimator to its unfitted state, dropping every
// reference its fit made.
type leasedFitter interface {
	fitLeased(ctx context.Context, X [][]float64, y []float64, l *lease) error
	unfit()
}

// FitScore fits r on (X, y), calls score, and unfits r before it
// returns, so r holds nothing of the fit afterwards: FitScore is for a
// model scored once and dropped, and score must not keep r or anything
// it reaches. The estimators of this package (and a Pipeline over one)
// grow their walk tables from tb, skipping the exact-size copy a kept
// model gets, and hand them back once unfitted; any other regressor is
// fitted with FitCtx and left as it is. ctx reaches the fit as FitCtx
// passes it, and a fit that fails returns its error without calling
// score. The fitted model is the one FitCtx would fit, so score sees
// its predictions bit for bit.
func (tb *Tables) FitScore(ctx context.Context, r Regressor, X [][]float64, y []float64, score func() error) error {
	lf, ok := r.(leasedFitter)
	if !ok {
		if err := FitCtx(ctx, r, X, y); err != nil {
			return err
		}
		return score()
	}
	l := &lease{tb: tb}
	defer func() {
		lf.unfit()
		for _, h := range l.taken {
			tb.give(h)
		}
	}()
	if err := lf.fitLeased(ctx, X, y, l); err != nil {
		return err
	}
	return score()
}
