package serve

import (
	"context"
	"fmt"
	"sync"
	"time"

	"lam/internal/lamerr"
	"lam/internal/ml"
	"lam/internal/registry"
	"lam/internal/telemetry"
)

// CoalesceConfig tunes micro-batch coalescing of single-row /predict
// requests. The policy is work-conserving (group commit): a request
// that finds its model idle is scored at once, on its own goroutine,
// exactly as an uncoalesced request would be; requests that arrive
// while a score for the same loaded model is running queue behind it
// and are scored together, at most MaxBatch rows per batch, as soon as
// it finishes. Nothing waits on a clock, so a batch forms only when
// there is contention to amortise. Batch scoring is bit-identical to
// row-at-a-time scoring (the internal/ml contract), so coalescing is
// invisible to clients except as latency/throughput.
type CoalesceConfig struct {
	// MaxBatch caps the rows scored per batch. <= 1 disables coalescing
	// entirely.
	MaxBatch int
	// MaxDelay is ignored: the coalescer has no batch window. The field
	// remains only because the frozen benchmark fixture still sets it;
	// it goes once that fixture drops it (ROADMAP item 7).
	MaxDelay time.Duration
}

func (c CoalesceConfig) enabled() bool { return c.MaxBatch > 1 }

// coalescer batches the single-row requests that queue behind a running
// score. Keying by loaded *registry.Model (not by name) means a hot
// swap naturally starts a fresh queue for the new version while rows
// already queued are scored on the model they were admitted against —
// the same finish-on-the-old-version semantics in-flight batch requests
// get.
type coalescer struct {
	maxBatch int
	metrics  *Metrics

	mu sync.Mutex
	// queues has a key for every busy model — one with a leader's solo
	// score or a drain in progress. The value stays nil until a first
	// follower arrives, so a lone request allocates nothing here, and
	// the key is deleted when the busy period ends, so a swapped-out
	// model is not retained.
	queues map[*registry.Model]*modelQueue
}

// flushResult is one waiter's share of a flushed batch.
type flushResult struct {
	y   float64
	err error
}

// modelQueue is the rows waiting behind one model's running score.
// Waiter channels are buffered so the drain never blocks on a departed
// client.
type modelQueue struct {
	rows    [][]float64
	waiters []chan flushResult
}

func newCoalescer(cfg CoalesceConfig, m *Metrics) *coalescer {
	return &coalescer{
		maxBatch: cfg.MaxBatch,
		metrics:  m,
		queues:   make(map[*registry.Model]*modelQueue),
	}
}

// predict scores one row for model m. Finding m idle, the caller
// becomes the busy period's leader and scores the row itself on its own
// context; otherwise the row queues for the drain and the caller waits
// for its result. Cancellation abandons the wait, never the batch: the
// row is scored and discarded, so batch-mates are unaffected.
func (c *coalescer) predict(ctx context.Context, m *registry.Model, x []float64) (float64, error) {
	// The coalesce span is the time spent in here: a leader's own
	// score, or a follower's wait from enqueue to fan-out.
	defer telemetry.StartSpan(ctx, "coalesce").End()
	c.mu.Lock()
	if _, busy := c.queues[m]; !busy {
		c.queues[m] = nil
		c.mu.Unlock()
		// Deferred so that a cancelled — or panicking — leader still
		// hands whatever queued behind it to the drain.
		defer c.endLead(m)
		c.count(1)
		return m.Predict(ctx, x)
	}
	ch := c.enqueueLocked(m, x)
	c.mu.Unlock()
	select {
	case res := <-ch:
		return res.y, res.err
	case <-ctx.Done():
		return 0, fmt.Errorf("serve: %w: %w", lamerr.ErrCancelled, ctx.Err())
	}
}

// enqueueLocked queues x behind busy model m and returns the channel
// its result will arrive on. Caller holds c.mu.
func (c *coalescer) enqueueLocked(m *registry.Model, x []float64) chan flushResult {
	q := c.queues[m]
	if q == nil {
		q = &modelQueue{}
		c.queues[m] = q
	}
	ch := make(chan flushResult, 1)
	q.rows = append(q.rows, x)
	q.waiters = append(q.waiters, ch)
	return ch
}

// endLead finishes a leader's solo score: the busy period ends if
// nothing queued meanwhile, otherwise it passes to a drain goroutine —
// not to the leader's own, so the leader answers its client now and the
// queued rows never depend on a client goroutine staying alive.
func (c *coalescer) endLead(m *registry.Model) {
	c.mu.Lock()
	q := c.queues[m]
	if q == nil {
		delete(c.queues, m)
	}
	c.mu.Unlock()
	if q != nil {
		go c.drain(m, q)
	}
}

// drain scores m's queue in arrival order, at most maxBatch rows per
// flush, picking up rows that arrive during a flush on the next turn,
// and ends the busy period when it finds the queue empty.
func (c *coalescer) drain(m *registry.Model, q *modelQueue) {
	for {
		c.mu.Lock()
		n := min(len(q.rows), c.maxBatch)
		if n == 0 {
			delete(c.queues, m)
			c.mu.Unlock()
			return
		}
		// Followers append past n, so the flush below reads its prefix
		// of the backing arrays without the lock.
		rows, waiters := q.rows[:n], q.waiters[:n]
		q.rows, q.waiters = q.rows[n:], q.waiters[n:]
		c.mu.Unlock()
		c.flush(m, rows, waiters)
	}
}

// flush scores rows as one batch into a pooled buffer and fans the
// results back out. The flush context is deliberately not any single
// request's: one disconnecting client must not cancel its batch-mates.
// If the batch call fails, every row is re-scored individually so one
// bad row cannot poison the batch — each waiter receives exactly the
// value or error a direct single-row call would have produced, which is
// the "never a wrong answer" half of the coalescing contract.
func (c *coalescer) flush(m *registry.Model, rows [][]float64, waiters []chan flushResult) {
	c.count(len(rows))
	buf := ml.GetScratch(len(rows))
	defer ml.PutScratch(buf)
	if err := m.PredictBatchInto(context.Background(), rows, *buf); err == nil {
		for i, ch := range waiters {
			ch <- flushResult{y: (*buf)[i]}
		}
		return
	}
	for i, ch := range waiters {
		y, err := m.Predict(context.Background(), rows[i])
		ch <- flushResult{y: y, err: err}
	}
}

// count records one flush of n rows; a leader's solo score is a flush
// of one, so rows per flush stays the "is batching happening" signal.
func (c *coalescer) count(n int) {
	c.metrics.CoalesceFlushes.Add(1)
	c.metrics.CoalesceRows.Add(uint64(n))
	c.metrics.CoalesceMaxFlush.SetMax(int64(n))
}
