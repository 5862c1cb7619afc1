package parallel

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// The helper budget bounds total pool concurrency across *nested*
// calls: a loop whose caller inherited the process default (workers
// <= 0) may only spawn helper goroutines while the process-wide
// budget of DefaultWorkers()-1 has headroom (the calling goroutine is
// the +1). Acquisition never blocks — a nested loop that finds the
// budget exhausted simply runs inline on its caller — so the scheme
// cannot deadlock, and concurrency stays additive rather than
// multiplicative when sweeps and ensemble fits nest. Loops with an explicit positive workers count bypass the
// budget: the caller asked for that parallelism by name.
var helperMu sync.Mutex
var helpersInUse int

func acquireHelpers(want int) int {
	limit := DefaultWorkers() - 1
	helperMu.Lock()
	defer helperMu.Unlock()
	free := limit - helpersInUse
	if want > free {
		want = free
	}
	if want < 0 {
		want = 0
	}
	helpersInUse += want
	return want
}

func releaseHelpers(n int) {
	helperMu.Lock()
	helpersInUse -= n
	helperMu.Unlock()
}

// DefaultWorkers returns the worker count a non-positive workers
// argument means: GOMAXPROCS. A binary that wants a smaller pool sets
// the runtime's own knob (runtime.GOMAXPROCS), which also caps CPU.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// Resolve maps a caller-supplied Workers knob to an effective worker
// count for n independent units: non-positive workers means
// GOMAXPROCS, and the result is clamped to [1, n] so a degenerate
// workload runs sequentially.
func Resolve(workers, n int) int {
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// ForCtx calls fn(i) at most once for every i in [0, n), using the
// calling goroutine plus up to workers-1 helper goroutines, and returns
// the error of the lowest failing index: the error a sequential loop
// that stops at its first failure reports, whatever the scheduling.
// Indices are handed out through a shared atomic counter, so uneven
// unit costs balance automatically. With one effective worker —
// including when a default-inherited nested call finds the
// process-wide helper budget exhausted — the loop runs inline and stops
// at its first failure; in parallel, no unit is claimed once a failure
// is seen, and every unit below it still runs.
//
// Each worker checks ctx before it runs a claimed unit, so after ctx is
// done no new unit starts and the loop returns once the units in flight
// finish: cancellation latency is bounded by one unit. A loop cancelled
// before every unit has run returns an error wrapping both
// lamerr.ErrCancelled and ctx.Err(), in preference to any unit's error
// (the sequential prefix is incomplete, so "the lowest failing index"
// is not defined). A nil ctx means context.Background(), whose nil
// Done channel makes every check fall through.
//
// The caller returns as soon as no unit is left to claim and every
// claimed unit has finished; it does not wait for a helper that has not
// started yet, which finds nothing to claim and exits.
func ForCtx(ctx context.Context, n, workers int, fn func(i int) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return Cancelled(err)
	}
	done := ctx.Done()
	helpers := Resolve(workers, n) - 1
	if workers <= 0 && helpers > 0 {
		helpers = acquireHelpers(helpers)
		defer releaseHelpers(helpers)
	}
	if helpers == 0 {
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
	l := &loop{n: int64(n), done: done, fn: fn}
	l.remaining.Store(int64(n))
	l.wg.Add(1)
	for range helpers {
		go l.work()
	}
	l.work()
	l.wg.Wait()
	if l.stopped.Load() {
		return Cancelled(ctx.Err())
	}
	return l.err
}

// loop is what the workers of one parallel ForCtx share, in one
// allocation.
type loop struct {
	n    int64
	done <-chan struct{}
	fn   func(i int) error

	next      atomic.Int64 // the lowest unclaimed index
	remaining atomic.Int64 // units neither finished nor given up
	stopped   atomic.Bool  // a worker saw ctx done
	wg        sync.WaitGroup

	mu  sync.Mutex // orders the updates of at and err
	at  int        // the lowest failing index so far, when err != nil
	err error
}

// work runs claimed units until none is left to claim.
func (l *loop) work() {
	for {
		i := l.next.Add(1) - 1
		if i >= l.n {
			return
		}
		select {
		case <-l.done:
			l.stopped.Store(true)
			l.close()
		default:
			if err := l.fn(int(i)); err != nil {
				l.record(int(i), err)
				l.close()
			}
		}
		l.finish(1)
	}
}

// record keeps err when unit i is the lowest failure so far.
func (l *loop) record(i int, err error) {
	l.mu.Lock()
	if l.err == nil || i < l.at {
		l.at, l.err = i, err
	}
	l.mu.Unlock()
}

// close gives up every unit not yet claimed. After a failure they all
// lie past it, since the counter only rises; after a cancellation none
// may start.
func (l *loop) close() {
	if old := l.next.Swap(l.n); old < l.n {
		l.finish(l.n - old)
	}
}

// finish counts k units as done; the last of the n releases the caller.
func (l *loop) finish(k int64) {
	if l.remaining.Add(-k) == 0 {
		l.wg.Done()
	}
}
