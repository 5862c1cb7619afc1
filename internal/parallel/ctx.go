package parallel

import (
	"context"
	"fmt"

	"lam/internal/lamerr"
)

// Cancelled wraps a context error in the shared lamerr.ErrCancelled
// sentinel, so callers can match the failure class
// (errors.Is(err, lamerr.ErrCancelled)) as well as the concrete cause
// (errors.Is(err, context.Canceled) / context.DeadlineExceeded).
func Cancelled(cause error) error {
	return fmt.Errorf("%w: %w", lamerr.ErrCancelled, cause)
}

// MapCtx runs fn over [0, n) through ForCtx and collects the results by
// index; on failure it returns the partial results alongside the
// error. A nil ctx means context.Background().
func MapCtx[T any](ctx context.Context, n, workers int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := ForCtx(ctx, n, workers, func(i int) error {
		v, e := fn(i)
		out[i] = v
		return e
	})
	return out, err
}

// ForBlocksCtx processes [0, n) as contiguous blocks of minBlock
// elements (the last may be shorter) through ForCtx, calling fn(lo, hi)
// for each block. Use it when the per-element work is too cheap to pay
// a pool dispatch per index (e.g. scoring one sample with a shallow
// tree). fn itself cannot fail (block loops in this repository are
// pure writes by index), so the only error is cancellation.
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
		fn(lo, min(lo+minBlock, n))
		return nil
	})
}
