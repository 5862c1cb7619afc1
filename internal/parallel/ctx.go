package parallel

import (
	"context"
	"fmt"
	"sync/atomic"

	"lam/internal/lamerr"
)

// Cancelled wraps a context error in the shared lamerr.ErrCancelled
// sentinel, so callers can match the failure class
// (errors.Is(err, lamerr.ErrCancelled)) as well as the concrete cause
// (errors.Is(err, context.Canceled) / context.DeadlineExceeded).
func Cancelled(cause error) error {
	return fmt.Errorf("%w: %w", lamerr.ErrCancelled, cause)
}

// ForCtx runs fn over [0, n) like ForErr, with prompt cancellation
// between units: each worker re-checks the context before claiming the
// next index, so after ctx is done no new unit starts and the loop
// returns once the in-flight units finish. Cancellation latency is
// therefore bounded by the duration of a single unit.
//
// When the loop is cancelled before every unit has run, the returned
// error wraps both lamerr.ErrCancelled and ctx.Err(); cancellation
// takes precedence over unit errors (the sequential prefix is
// incomplete, so "the lowest failing index" is not well defined).
// Otherwise ForCtx returns the error of the lowest failing index, like
// ForErr. A nil ctx means context.Background().
func ForCtx(ctx context.Context, n, workers int, fn func(i int) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return Cancelled(err)
	}
	if ctx.Done() == nil {
		// Background-like context: cancellation is impossible, skip the
		// per-unit bookkeeping.
		return ForErr(n, workers, fn)
	}
	if Resolve(workers, n) == 1 {
		// Mirror ForErr's sequential path: stop at the first failing
		// index instead of running the remaining units.
		done := ctx.Done()
		for i := 0; i < n; i++ {
			select {
			case <-done:
				return Cancelled(ctx.Err())
			default:
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	first := newLowestErr(n)
	var stopped atomic.Bool
	done := ctx.Done()
	For(n, workers, func(i int) {
		if stopped.Load() || first.past(i) {
			return
		}
		select {
		case <-done:
			stopped.Store(true)
			return
		default:
		}
		if err := fn(i); err != nil {
			first.record(i, err)
		}
	})
	if stopped.Load() {
		return Cancelled(ctx.Err())
	}
	return first.err
}

// MapCtx runs fn over [0, n) and collects the results by index, with
// ForCtx's prompt cancellation between units; on failure it returns
// the partial results alongside the error. A nil ctx means
// context.Background().
func MapCtx[T any](ctx context.Context, n, workers int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := ForCtx(ctx, n, workers, func(i int) error {
		v, e := fn(i)
		out[i] = v
		return e
	})
	return out, err
}

// ForBlocksCtx processes [0, n) as contiguous blocks like ForBlocks,
// re-checking the context before each block; fn itself cannot fail
// (block loops in this repository are pure writes by index), so the
// only error is cancellation.
func ForBlocksCtx(ctx context.Context, n, workers, minBlock int, fn func(lo, hi int)) error {
	if n <= 0 {
		return nil
	}
	if minBlock < 1 {
		minBlock = 1
	}
	blocks := (n + minBlock - 1) / minBlock
	return ForCtx(ctx, blocks, workers, func(b int) error {
		lo := b * minBlock
		hi := lo + minBlock
		if hi > n {
			hi = n
		}
		fn(lo, hi)
		return nil
	})
}
