package parallel

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"lam/internal/lamerr"
)

// TestForCtxCompletesLikeForErr checks the uncancelled path runs every
// unit once and returns nil, as the former error-only loop did.
func TestForCtxCompletesLikeForErr(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var ran atomic.Int64
		err := ForCtx(context.Background(), 100, workers, func(i int) error {
			ran.Add(1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: unexpected error: %v", workers, err)
		}
		if ran.Load() != 100 {
			t.Fatalf("workers=%d: ran %d units, want 100", workers, ran.Load())
		}
	}
}

// TestForCtxNilContext treats nil as context.Background().
func TestForCtxNilContext(t *testing.T) {
	if err := ForCtx(nil, 10, 2, func(int) error { return nil }); err != nil {
		t.Fatalf("nil ctx: %v", err)
	}
}

// TestForCtxLowestError keeps the deterministic error selection of a
// sequential loop that stops at its first failure.
func TestForCtxLowestError(t *testing.T) {
	want := errors.New("unit 3")
	err := ForCtx(context.Background(), 10, 4, func(i int) error {
		switch i {
		case 3:
			return want
		case 7:
			return errors.New("unit 7")
		}
		return nil
	})
	if !errors.Is(err, want) {
		t.Fatalf("got %v, want the lowest failing index error", err)
	}
}

// TestForCtxPreCancelled runs nothing when the context is already done.
func TestForCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	err := ForCtx(ctx, 100, 4, func(i int) error {
		ran.Add(1)
		return nil
	})
	if ran.Load() != 0 {
		t.Fatalf("ran %d units after pre-cancel, want 0", ran.Load())
	}
	assertCancelled(t, err)
}

// TestForCtxMidLoopCancel cancels from inside a unit and checks that no
// new units start, that the error carries both sentinels, and that the
// loop returns promptly.
func TestForCtxMidLoopCancel(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int64
		start := time.Now()
		err := ForCtx(ctx, 10_000, workers, func(i int) error {
			if ran.Add(1) == 8 {
				cancel()
			}
			time.Sleep(100 * time.Microsecond)
			return nil
		})
		cancel()
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Fatalf("workers=%d: cancellation took %v", workers, elapsed)
		}
		assertCancelled(t, err)
		// Units already claimed may finish, but the vast majority must
		// never start.
		if n := ran.Load(); n > 100 {
			t.Fatalf("workers=%d: %d units ran after cancellation", workers, n)
		}
	}
}

// TestForCtxSequentialShortCircuit checks the one-worker path stops at
// a failing unit instead of running the rest.
func TestForCtxSequentialShortCircuit(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	want := errors.New("unit 2")
	var ran atomic.Int64
	err := ForCtx(ctx, 1000, 1, func(i int) error {
		ran.Add(1)
		if i == 2 {
			return want
		}
		return nil
	})
	if !errors.Is(err, want) {
		t.Fatalf("got %v, want unit-2 error", err)
	}
	if ran.Load() != 3 {
		t.Fatalf("ran %d units after the failure, want 3", ran.Load())
	}
}

// TestMapCtxCancelled checks MapCtx surfaces the cancellation error.
func TestMapCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	_, err := MapCtx(ctx, 1000, 4, func(i int) (int, error) {
		if ran.Add(1) == 4 {
			cancel()
		}
		return i, nil
	})
	assertCancelled(t, err)
}

// TestForBlocksCtxCovers checks the block loop covers [0, n) exactly
// once without cancellation.
func TestForBlocksCtxCovers(t *testing.T) {
	seen := make([]atomic.Int64, 100)
	err := ForBlocksCtx(context.Background(), 100, 4, 7, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			seen[i].Add(1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range seen {
		if seen[i].Load() != 1 {
			t.Fatalf("index %d visited %d times", i, seen[i].Load())
		}
	}
}

func assertCancelled(t *testing.T, err error) {
	t.Helper()
	if err == nil {
		t.Fatal("expected a cancellation error, got nil")
	}
	if !errors.Is(err, lamerr.ErrCancelled) {
		t.Fatalf("error %v does not wrap lamerr.ErrCancelled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
}
