package parallel

import (
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

// For calls fn(i) exactly once for every i in [0, n), using the
// calling goroutine plus up to workers-1 helper goroutines. Indices
// are handed out through a shared atomic counter (a work-stealing-free
// pool), so uneven unit costs balance automatically. With one
// effective worker — including when a default-inherited nested call
// finds the process-wide helper budget exhausted — the loop runs
// inline.
func For(n, workers int, fn func(i int)) {
	resolved := Resolve(workers, n)
	helpers := resolved - 1
	budgeted := workers <= 0 && helpers > 0
	if budgeted {
		helpers = acquireHelpers(helpers)
		defer releaseHelpers(helpers)
	}
	if helpers == 0 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	work := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			fn(i)
		}
	}
	var wg sync.WaitGroup
	wg.Add(helpers)
	for w := 0; w < helpers; w++ {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}

// ForErr runs fn over [0, n) like For and returns the error of the
// lowest failing index — the same error a sequential loop that stops
// at the first failure would report, which keeps error output
// independent of scheduling. Like that loop, it starts no unit past a
// failure it has already seen.
func ForErr(n, workers int, fn func(i int) error) error {
	if Resolve(workers, n) == 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	first := newLowestErr(n)
	For(n, workers, func(i int) {
		if first.past(i) {
			return
		}
		if err := fn(i); err != nil {
			first.record(i, err)
		}
	})
	return first.err
}

// lowestErr is the error of the lowest failing index of a parallel
// loop: the index is read without the lock, so a unit past it is
// skipped cheaply, and the lock orders the updates.
type lowestErr struct {
	at  atomic.Int64 // the lowest failing index so far, n when none
	mu  sync.Mutex
	err error
}

func newLowestErr(n int) *lowestErr {
	l := new(lowestErr)
	l.at.Store(int64(n))
	return l
}

// past reports whether unit i lies past a failure already recorded.
func (l *lowestErr) past(i int) bool { return int64(i) > l.at.Load() }

// record keeps err when unit i is the lowest failure so far.
func (l *lowestErr) record(i int, err error) {
	l.mu.Lock()
	if int64(i) < l.at.Load() {
		l.at.Store(int64(i))
		l.err = err
	}
	l.mu.Unlock()
}

// ForBlocks processes [0, n) as contiguous blocks of at least minBlock
// elements, calling fn(lo, hi) for each block. Use it when the
// per-element work is too cheap to pay a pool dispatch per index
// (e.g. scoring one sample with a shallow tree).
func ForBlocks(n, workers, minBlock int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if minBlock < 1 {
		minBlock = 1
	}
	blocks := (n + minBlock - 1) / minBlock
	if Resolve(workers, blocks) == 1 {
		fn(0, n)
		return
	}
	For(blocks, workers, func(b int) {
		lo := b * minBlock
		hi := lo + minBlock
		if hi > n {
			hi = n
		}
		fn(lo, hi)
	})
}
