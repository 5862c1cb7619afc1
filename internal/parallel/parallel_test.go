package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

// ctxKinds are the contexts ForCtx must treat alike when none is
// cancelled: nil, Background (a nil Done channel) and a cancellable
// one, since all three take the same loop body.
func ctxKinds() (kinds map[string]context.Context, cancel func()) {
	ctx, cancel := context.WithCancel(context.Background())
	return map[string]context.Context{"nil": nil, "Background": context.Background(), "cancellable": ctx}, cancel
}

func TestForCoversEveryIndexOnce(t *testing.T) {
	kinds, cancel := ctxKinds()
	defer cancel()
	for name, ctx := range kinds {
		for _, workers := range []int{-1, 0, 1, 2, 7, 64} {
			for _, n := range []int{0, 1, 2, 3, 100} {
				hits := make([]int32, n)
				err := ForCtx(ctx, n, workers, func(i int) error {
					atomic.AddInt32(&hits[i], 1)
					return nil
				})
				if err != nil {
					t.Fatalf("%s ctx, workers=%d n=%d: %v", name, workers, n, err)
				}
				for i, h := range hits {
					if h != 1 {
						t.Fatalf("%s ctx, workers=%d n=%d: index %d visited %d times", name, workers, n, i, h)
					}
				}
			}
		}
	}
}

// TestLateHelperRunsNothing: a helper that is not scheduled before the
// caller has run every unit holds nothing up. At one processor, with
// units that never yield, the caller runs all of them while its helper
// waits in the run queue, and returns with the helper still there
// (counted by runtime.NumGoroutine); the helper then exits having
// claimed nothing.
func TestLateHelperRunsNothing(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	kinds, cancel := ctxKinds()
	defer cancel()
	const n = 64
	for name, ctx := range kinds {
		hits := make([]int32, n)
		fn := func(i int) error {
			atomic.AddInt32(&hits[i], 1)
			return nil
		}
		runtime.GC() // no collection starts inside the loop to preempt the caller
		before := runtime.NumGoroutine()
		err := ForCtx(ctx, n, 2, fn)
		after := runtime.NumGoroutine()
		if err != nil {
			t.Fatalf("%s ctx: %v", name, err)
		}
		if after != before+1 {
			t.Fatalf("%s ctx: %d goroutines before the loop and %d after it, want the unstarted helper still counted: the caller waited for it", name, before, after)
		}
		for range 1_000_000 {
			if runtime.NumGoroutine() <= before {
				break
			}
			runtime.Gosched()
		}
		if g := runtime.NumGoroutine(); g > before {
			t.Fatalf("%s ctx: the late helper has not exited (%d goroutines, %d before the loop)", name, g, before)
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("%s ctx: index %d visited %d times", name, i, h)
			}
		}
	}
}

func TestResolveClamps(t *testing.T) {
	cases := []struct{ workers, n, want int }{
		{0, 10, DefaultWorkers()},
		{-3, 10, DefaultWorkers()},
		{4, 2, 2},
		{4, 0, 1},
		{1, 100, 1},
		{8, 8, 8},
	}
	for _, c := range cases {
		if c.want > c.n && c.n >= 1 {
			c.want = c.n
		}
		if got := Resolve(c.workers, c.n); got != c.want {
			t.Errorf("Resolve(%d, %d) = %d, want %d", c.workers, c.n, got, c.want)
		}
	}
}

func TestForCtxReturnsLowestIndexError(t *testing.T) {
	kinds, cancel := ctxKinds()
	defer cancel()
	for name, ctx := range kinds {
		for _, workers := range []int{1, 4} {
			err := ForCtx(ctx, 10, workers, func(i int) error {
				if i == 3 || i == 7 {
					return fmt.Errorf("unit %d failed", i)
				}
				return nil
			})
			if err == nil || err.Error() != "unit 3 failed" {
				t.Fatalf("%s ctx, workers=%d: got %v, want the lowest-index error", name, workers, err)
			}
		}
		if err := ForCtx(ctx, 5, 4, func(int) error { return nil }); err != nil {
			t.Fatalf("%s ctx: unexpected error: %v", name, err)
		}
	}
}

func TestForBlocksCoversRange(t *testing.T) {
	kinds, cancel := ctxKinds()
	defer cancel()
	for name, ctx := range kinds {
		for _, workers := range []int{1, 4} {
			for _, n := range []int{0, 1, 5, 64, 100} {
				hits := make([]int32, n)
				err := ForBlocksCtx(ctx, n, workers, 8, func(lo, hi int) {
					if lo < 0 || hi > n || lo >= hi {
						t.Errorf("bad block [%d, %d) for n=%d", lo, hi, n)
					}
					for i := lo; i < hi; i++ {
						atomic.AddInt32(&hits[i], 1)
					}
				})
				if err != nil {
					t.Fatalf("%s ctx, workers=%d n=%d: %v", name, workers, n, err)
				}
				for i, h := range hits {
					if h != 1 {
						t.Fatalf("%s ctx, workers=%d n=%d: index %d visited %d times", name, workers, n, i, h)
					}
				}
			}
		}
	}
}

func TestMapOrdersResultsByIndex(t *testing.T) {
	got, err := MapCtx(context.Background(), 5, 4, func(i int) (int, error) { return i * i, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("Map result[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestMapErr(t *testing.T) {
	sentinel := errors.New("boom")
	got, err := MapCtx(context.Background(), 4, 2, func(i int) (int, error) {
		if i == 2 {
			return 0, sentinel
		}
		return i + 1, nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("got err %v, want sentinel", err)
	}
	if got[1] != 2 {
		t.Fatalf("partial results not preserved: %v", got)
	}
}

// TestDeterministicUnderContention checks the package's core promise:
// index-addressed writes make output independent of worker count.
func TestDeterministicUnderContention(t *testing.T) {
	unit := func(i int) (float64, error) { return float64(i) * 1.5, nil }
	ref, _ := MapCtx(context.Background(), 1000, 1, unit)
	for _, workers := range []int{2, 5, 16} {
		got, _ := MapCtx(context.Background(), 1000, workers, unit)
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d: result[%d] differs", workers, i)
			}
		}
	}
}

// TestLowestErrorIndependentOfProcs plants failures at a slow low index
// and at fast higher ones, so the higher ones usually fail first, and
// requires the low one's error from ForCtx under every context kind at
// 1, 2 and 7 processors, on the default worker count and on an explicit
// one.
func TestLowestErrorIndependentOfProcs(t *testing.T) {
	const n = 400
	fail := map[int]bool{37: true, 38: true, 211: true, n - 1: true}
	fn := func(i int) error {
		if i == 37 {
			for range 2000 {
				runtime.Gosched()
			}
		}
		if fail[i] {
			return fmt.Errorf("unit %d failed", i)
		}
		return nil
	}
	kinds, cancel := ctxKinds()
	defer cancel()
	for _, procs := range []int{1, 2, 7} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			for _, workers := range []int{0, 7} {
				for range 10 {
					for name, ctx := range kinds {
						if err := ForCtx(ctx, n, workers, fn); err == nil || err.Error() != "unit 37 failed" {
							t.Fatalf("%s ctx at %d processors, workers=%d: got %v, want unit 37's error", name, procs, workers, err)
						}
					}
				}
			}
		}()
	}
}

// TestForCtxBytesIndependentOfN: a parallel loop keeps one lowest
// failing index, not an error per unit, and its shared state is one
// allocation, so its bytes do not grow with its length.
func TestForCtxBytesIndependentOfN(t *testing.T) {
	kinds, cancel := ctxKinds()
	defer cancel()
	bytes := func(n int) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range 10 {
			for _, ctx := range kinds {
				_ = ForCtx(ctx, n, 2, func(int) error { return nil })
			}
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / 10
	}
	bytes(1 << 10) // warm the goroutine free lists
	small, large := bytes(1<<10), bytes(1<<16)
	if large > small+4<<10 {
		t.Fatalf("three 65 536-unit loops allocate %d B against %d B for 1 024 units: something grows with n", large, small)
	}
}
