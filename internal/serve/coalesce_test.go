package serve

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lam/internal/dataset"
	"lam/internal/experiments"
	"lam/internal/hybrid"
	"lam/internal/lamerr"
	"lam/internal/machine"
	"lam/internal/registry"
)

// stencilGridSplit returns the 2% train / held-out split of the
// stencil-grid dataset the throughput-plane tests train on, with its
// analytical model.
func stencilGridSplit(t *testing.T) (train, test *dataset.Dataset, am hybrid.AnalyticalModel) {
	t.Helper()
	m := machine.BlueWatersXE6()
	ds, err := experiments.DatasetByName("stencil-grid", m, 42)
	if err != nil {
		t.Fatal(err)
	}
	am, err = experiments.AMByDataset("stencil-grid", m)
	if err != nil {
		t.Fatal(err)
	}
	train, test, err = ds.SampleFraction(0.02, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	return train, test, am
}

// newThroughputServer builds a registry with one trained hybrid model
// and returns a live server with the given throughput-plane configs,
// the underlying library model for bit-identity checks, the serve
// instance for metric assertions, and held-out feature rows.
func newThroughputServer(t *testing.T, co CoalesceConfig, ad AdmitConfig) (*httptest.Server, *Server, *hybrid.Model, [][]float64) {
	t.Helper()
	train, test, am := stencilGridSplit(t)
	hy, err := hybrid.TrainCtx(context.Background(), train, am, hybrid.Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	reg, err := registry.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.SaveHybrid(hy, registry.Meta{
		Name: "grid-hybrid", Workload: "stencil-grid", Machine: "bluewaters",
		TrainSize: train.Len(),
	}); err != nil {
		t.Fatal(err)
	}
	srv := New(reg)
	srv.Coalesce = co
	srv.Admit = ad
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, srv, hy, test.X[:64]
}

// TestCoalescedBitIdentical is the coalescing acceptance check: under
// concurrent mixed single/batch load, every coalesced response is bit
// identical to the direct library call for that row — coalescing is
// observable only in the metrics, never in the payloads.
func TestCoalescedBitIdentical(t *testing.T) {
	ts, srv, hy, X := newThroughputServer(t,
		CoalesceConfig{MaxBatch: 8}, AdmitConfig{})

	want := make([]float64, len(X))
	for i, x := range X {
		y, err := hy.Predict(x)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = y
	}

	const workers = 16
	const iters = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				i := (w*iters + it) % len(X)
				if it%2 == 0 {
					// Single row: rides the coalescer.
					resp, body := postPredict(t, ts.URL, map[string]any{"model": "grid-hybrid", "x": X[i]})
					if resp.StatusCode != http.StatusOK {
						t.Errorf("single %d: status %d: %s", i, resp.StatusCode, body)
						return
					}
					var out predictOut
					if err := json.Unmarshal(body, &out); err != nil {
						t.Error(err)
						return
					}
					if out.Y == nil || *out.Y != want[i] {
						t.Errorf("single row %d: served %v, want %v", i, out.Y, want[i])
					}
				} else {
					// Small batch: bypasses the coalescer, shares the server.
					lo := i
					hi := lo + 4
					if hi > len(X) {
						hi = len(X)
					}
					resp, body := postPredict(t, ts.URL, map[string]any{"model": "grid-hybrid", "batch": X[lo:hi]})
					if resp.StatusCode != http.StatusOK {
						t.Errorf("batch [%d:%d): status %d: %s", lo, hi, resp.StatusCode, body)
						return
					}
					var out predictOut
					if err := json.Unmarshal(body, &out); err != nil {
						t.Error(err)
						return
					}
					for j, y := range out.YBatch {
						if y != want[lo+j] {
							t.Errorf("batch row %d: served %v, want %v", lo+j, y, want[lo+j])
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()

	if got := srv.Metrics.CoalescedRequests.Load(); got != workers*iters/2 {
		t.Fatalf("coalesced %d singles, want %d", got, workers*iters/2)
	}
	if f := srv.Metrics.CoalesceFlushes.Load(); f == 0 {
		t.Fatal("no coalesce flushes recorded")
	}
	if mx := srv.Metrics.CoalesceMaxFlush.Load(); mx > 8 {
		t.Fatalf("a flush held %d rows, above MaxBatch 8", mx)
	}
}

// TestCoalesceWorkConserving pins the coalescing policy: a request that
// finds its model idle is scored at once as a flush of one, and only
// the rows that queue behind a running score are batched, MaxBatch at a
// time.
func TestCoalesceWorkConserving(t *testing.T) {
	const maxBatch = 64
	ts, srv, hy, X := newThroughputServer(t, CoalesceConfig{MaxBatch: maxBatch}, AdmitConfig{})

	// Sequential requests never overlap, so none may wait for
	// batch-mates: coalescing must cost a lone request nothing over the
	// uncoalesced path. The yardstick is the same registry served
	// without a coalescer, which keeps the bound independent of host
	// speed; the slack is half of what a 1 ms batch window per request
	// would add.
	const sequential = 200
	plain := httptest.NewServer(New(srv.reg).Handler())
	defer plain.Close()
	timeSequential := func(url string) time.Duration {
		start := time.Now()
		for i := 0; i < sequential; i++ {
			x := X[i%len(X)]
			resp, body := postPredict(t, url, map[string]any{"model": "grid-hybrid", "x": x})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("request %d: status %d: %s", i, resp.StatusCode, body)
			}
		}
		return time.Since(start)
	}
	timeSequential(plain.URL) // warm the client's connection pool and both code paths
	perRequest := timeSequential(plain.URL)
	coalesced := timeSequential(ts.URL)
	if slack := sequential * time.Millisecond / 2; coalesced > perRequest+slack {
		t.Fatalf("%d sequential requests took %s coalesced vs %s uncoalesced: lone requests are waiting",
			sequential, coalesced, perRequest)
	}
	if f, rows := srv.Metrics.CoalesceFlushes.Load(), srv.Metrics.CoalesceRows.Load(); f != sequential || rows != sequential {
		t.Fatalf("%d sequential requests: %d flushes / %d rows, want every request a flush of one", sequential, f, rows)
	}

	// Rows queued behind a busy model drain in arrival order, MaxBatch
	// per flush, and the busy period leaves nothing behind.
	m, err := srv.load(context.Background(), "grid-hybrid", 0)
	if err != nil {
		t.Fatal(err)
	}
	c := srv.co
	queued := make([][]float64, 2*maxBatch+3)
	for i := range queued {
		queued[i] = X[i%len(X)]
	}
	waiters := queueBehindBusy(c, m, queued)
	c.drain(m, c.queues[m])
	checkAnswered(t, hy, waiters, queued)
	// 2*MaxBatch+3 rows in flushes of MaxBatch, MaxBatch, 3: the fewest
	// flushes the cap allows, and the cap reached but never exceeded.
	if f, rows := srv.Metrics.CoalesceFlushes.Load()-sequential, srv.Metrics.CoalesceRows.Load()-sequential; f != 3 || rows != uint64(len(queued)) {
		t.Fatalf("drain of %d rows: %d flushes / %d rows, want 3 / %d", len(queued), f, rows, len(queued))
	}
	if mx := srv.Metrics.CoalesceMaxFlush.Load(); mx != maxBatch {
		t.Fatalf("max flush %d rows, want exactly MaxBatch=%d", mx, maxBatch)
	}
	if n := len(c.queues); n != 0 {
		t.Fatalf("%d model queues left after the drain, want 0", n)
	}
}

// queueBehindBusy marks m busy, as a leader's solo score would, unless
// it already is, and queues rows behind it, returning their result
// channels in order. The caller ends the busy period with c.drain or
// c.endLead.
func queueBehindBusy(c *coalescer, m *registry.Model, rows [][]float64) []chan flushResult {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, busy := c.queues[m]; !busy {
		c.queues[m] = nil
	}
	waiters := make([]chan flushResult, len(rows))
	for i, x := range rows {
		waiters[i] = c.enqueueLocked(m, x)
	}
	return waiters
}

// checkAnswered receives every waiter's result and requires it to be
// the library's bit-identical prediction for the matching row.
func checkAnswered(t *testing.T, hy *hybrid.Model, waiters []chan flushResult, rows [][]float64) {
	t.Helper()
	for i, ch := range waiters {
		want, err := hy.Predict(rows[i])
		if err != nil {
			t.Fatal(err)
		}
		if res := <-ch; res.err != nil || res.y != want {
			t.Fatalf("queued row %d: got (%v, %v), want %v", i, res.y, res.err, want)
		}
	}
}

// TestColdStartSingleFlight fires a burst of concurrent requests at a
// freshly started server: the artifact must be deserialized exactly
// once (single-flighted), not once per request — the thundering-herd
// guard on the latest-pointer refresh path.
func TestColdStartSingleFlight(t *testing.T) {
	ts, srv, hy, X := newThroughputServer(t, CoalesceConfig{}, AdmitConfig{})
	const clients = 16
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, body := postPredict(t, ts.URL, map[string]any{"model": "grid-hybrid", "x": X[i]})
			if resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: status %d: %s", i, resp.StatusCode, body)
				return
			}
			var out predictOut
			if err := json.Unmarshal(body, &out); err != nil {
				t.Error(err)
				return
			}
			want, err := hy.Predict(X[i])
			if err != nil {
				t.Error(err)
				return
			}
			if out.Y == nil || *out.Y != want {
				t.Errorf("row %d: served %v, want %v", i, out.Y, want)
			}
		}(i)
	}
	wg.Wait()
	if misses := srv.Metrics.ModelCacheMisses.Load(); misses != 1 {
		t.Fatalf("cold burst of %d requests deserialized the artifact %d times, want 1", clients, misses)
	}
	if hits := srv.Metrics.ModelCacheHits.Load(); hits != clients-1 {
		t.Fatalf("cache hits %d, want %d", hits, clients-1)
	}
}

// TestAdmissionShedsNeverWrong drives far more concurrent requests
// than the in-flight + queue budget admits while injected latency holds
// slots busy: the budgeted requests must all come back correct,
// everything else must be a 429 with Retry-After — a shed is always an
// honest refusal, never a wrong answer.
func TestAdmissionShedsNeverWrong(t *testing.T) {
	const inflight, queue, clients = 2, 2, 16
	ts, srv, hy, X := newThroughputServer(t,
		CoalesceConfig{MaxBatch: 64},
		AdmitConfig{MaxInflight: inflight, Queue: queue})
	// The injected latency is the window within which all clients must
	// hit the admission gate for the shed split to be deterministic; 1s
	// is generous even on a loaded 1-core CI box, and the assertions
	// below still allow a straggler to be admitted into a freed slot.
	srv.InjectLatency = time.Second

	var ok, shed atomic.Uint64
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, body := postPredict(t, ts.URL, map[string]any{"model": "grid-hybrid", "x": X[i]})
			switch resp.StatusCode {
			case http.StatusOK:
				ok.Add(1)
				var out predictOut
				if err := json.Unmarshal(body, &out); err != nil {
					t.Error(err)
					return
				}
				want, err := hy.Predict(X[i])
				if err != nil {
					t.Error(err)
					return
				}
				if out.Y == nil || *out.Y != want {
					t.Errorf("admitted row %d: served %v, want %v", i, out.Y, want)
				}
			case http.StatusTooManyRequests:
				shed.Add(1)
				if resp.Header.Get("Retry-After") == "" {
					t.Error("429 without Retry-After")
				}
				var e struct {
					Error string `json:"error"`
				}
				if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
					t.Errorf("429 body %s is not a JSON error", body)
				}
			default:
				t.Errorf("request %d: unexpected status %d: %s", i, resp.StatusCode, body)
			}
		}(i)
	}
	wg.Wait()

	// Nominally exactly inflight+queue requests are served and the
	// rest shed; a goroutine scheduled after the first responses freed
	// slots can raise the served count, so assert bounds, not the
	// exact split — the invariant under test is "budget served
	// correctly, overflow shed honestly, nothing lost".
	if got := ok.Load(); got < inflight+queue || got > 2*(inflight+queue) {
		t.Fatalf("%d requests served, want in [%d, %d] (in-flight %d + queue %d, plus stragglers)",
			got, inflight+queue, 2*(inflight+queue), inflight, queue)
	}
	if ok.Load()+shed.Load() != clients {
		t.Fatalf("%d ok + %d shed != %d requests", ok.Load(), shed.Load(), clients)
	}
	if got := srv.Metrics.Shed.Load(); got != shed.Load() {
		t.Fatalf("shed counter %d, want %d", got, shed.Load())
	}
	if peak := srv.Metrics.QueuePeakDepth.Load(); peak > queue {
		t.Fatalf("queue peaked at %d, above configured bound %d", peak, queue)
	}
	if d := srv.Metrics.QueueDepth.Load(); d != 0 {
		t.Fatalf("queue depth %d after drain, want 0", d)
	}
}

// TestOverloadBoundedQueue hammers the server well past its admission
// budget from many closed-loop clients and asserts the overload
// invariants: the wait queue never grows past its bound, every
// response is either a correct 200 or a 429, and the queue drains to
// zero afterwards.
func TestOverloadBoundedQueue(t *testing.T) {
	const inflight, queue, clients, iters = 2, 4, 32, 10
	ts, srv, hy, X := newThroughputServer(t,
		CoalesceConfig{MaxBatch: 64},
		AdmitConfig{MaxInflight: inflight, Queue: queue})
	// Every admitted request holds its slot for at least 2 ms, so the
	// clients overrun the budget however fast the handler itself is.
	srv.InjectLatency = 2 * time.Millisecond

	want := make([]float64, len(X))
	for i, x := range X {
		y, err := hy.Predict(x)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = y
	}

	var ok, shed atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				i := (w + it*clients) % len(X)
				resp, body := postPredict(t, ts.URL, map[string]any{"model": "grid-hybrid", "x": X[i]})
				switch resp.StatusCode {
				case http.StatusOK:
					ok.Add(1)
					var out predictOut
					if err := json.Unmarshal(body, &out); err != nil {
						t.Error(err)
						return
					}
					if out.Y == nil || *out.Y != want[i] {
						t.Errorf("row %d: served %v, want %v", i, out.Y, want[i])
					}
				case http.StatusTooManyRequests:
					shed.Add(1)
				default:
					t.Errorf("unexpected status %d: %s", resp.StatusCode, body)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	if ok.Load() == 0 {
		t.Fatal("no requests served under overload")
	}
	if shed.Load() == 0 {
		t.Fatal("no requests shed: overload never hit the admission bound")
	}
	if ok.Load()+shed.Load() != clients*iters {
		t.Fatalf("%d ok + %d shed != %d requests", ok.Load(), shed.Load(), clients*iters)
	}
	if peak := srv.Metrics.QueuePeakDepth.Load(); peak > queue {
		t.Fatalf("queue peaked at %d, above configured bound %d", peak, queue)
	}
	if d := srv.Metrics.QueueDepth.Load(); d != 0 {
		t.Fatalf("queue depth %d after drain, want 0", d)
	}
}

// TestCoalescedBadRowDoesNotPoisonBatch queues a row the model rejects
// and a valid row into the same flush: the valid row must get its
// bit-identical answer, the bad row its own client error — the per-row
// fallback of the flush error path.
func TestCoalescedBadRowDoesNotPoisonBatch(t *testing.T) {
	_, srv, hy, X := newThroughputServer(t, CoalesceConfig{MaxBatch: 2}, AdmitConfig{})
	m, err := srv.load(context.Background(), "grid-hybrid", 0)
	if err != nil {
		t.Fatal(err)
	}
	// Arity matches but the analytical model rejects non-positive
	// dimensions — an error the batch path reports for the whole batch,
	// which is what sends the flush to the per-row fallback.
	rows := [][]float64{X[0], {-1, 240, 160}}
	if err := m.PredictBatchInto(context.Background(), rows, make([]float64, len(rows))); err == nil {
		t.Fatal("fixture batch scored cleanly; the fallback would not be exercised")
	}
	c := srv.co
	waiters := queueBehindBusy(c, m, rows)
	c.drain(m, c.queues[m])
	if f, n := srv.Metrics.CoalesceFlushes.Load(), srv.Metrics.CoalesceRows.Load(); f != 1 || n != 2 {
		t.Fatalf("%d flushes / %d rows, want both rows in one flush", f, n)
	}

	checkAnswered(t, hy, waiters[:1], rows[:1])
	if bad := <-waiters[1]; !errors.Is(predictError(bad.err), lamerr.ErrBadRequest) {
		t.Fatalf("bad row: error %v, want a bad-request error", bad.err)
	}
}

// waitIdle waits for every busy period to end: a drain answers its last
// waiter a moment before it retires the model's queue.
func waitIdle(t *testing.T, c *coalescer) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		c.mu.Lock()
		n := len(c.queues)
		c.mu.Unlock()
		if n == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d model queues still busy", n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCoalesceCancellation pins what a cancelled request may and may
// not take down with it: a follower abandons only its own wait, and a
// leader's busy period still passes to the drain.
func TestCoalesceCancellation(t *testing.T) {
	_, srv, hy, X := newThroughputServer(t, CoalesceConfig{MaxBatch: 8}, AdmitConfig{})
	m, err := srv.load(context.Background(), "grid-hybrid", 0)
	if err != nil {
		t.Fatal(err)
	}
	c := srv.co
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()

	// A follower that gives up while queued: its row stays in the
	// batch, it gets ErrCancelled, its batch-mates get their answers.
	mates := X[:2]
	waiters := queueBehindBusy(c, m, mates)
	if _, err := c.predict(cancelled, m, X[2]); !errors.Is(err, lamerr.ErrCancelled) {
		t.Fatalf("cancelled follower: error %v, want ErrCancelled", err)
	}
	more := queueBehindBusy(c, m, X[3:4])
	c.drain(m, c.queues[m])
	checkAnswered(t, hy, append(waiters, more...), [][]float64{X[0], X[1], X[3]})
	if f, n := srv.Metrics.CoalesceFlushes.Load(), srv.Metrics.CoalesceRows.Load(); f != 1 || n != 4 {
		t.Fatalf("%d flushes / %d rows, want the abandoned row scored with its three batch-mates", f, n)
	}
	waitIdle(t, c)

	// A leader whose context is already cancelled fails on its own
	// context and still ends its busy period.
	if _, err := c.predict(cancelled, m, X[0]); !errors.Is(err, lamerr.ErrCancelled) {
		t.Fatalf("cancelled leader: error %v, want ErrCancelled", err)
	}
	waitIdle(t, c)

	// Rows that queued behind a leader are handed to a drain goroutine
	// when the leader finishes, however it finished.
	waiters = queueBehindBusy(c, m, mates)
	c.endLead(m)
	checkAnswered(t, hy, waiters, mates)
	waitIdle(t, c)
}

// TestCoalesceHotSwapStress hammers three models from sixteen clients
// while new versions of all three are published: every answer must be
// bit-identical to the library's for the version that served it, every
// flush within MaxBatch, and no model — swapped out or current — may
// keep a queue afterwards.
func TestCoalesceHotSwapStress(t *testing.T) {
	train, test, am := stencilGridSplit(t)
	X := test.X[:16]
	const versions = 2
	var hys [versions]*hybrid.Model
	var want [versions][]float64
	for v := range hys {
		hy, err := hybrid.TrainCtx(context.Background(), train, am, hybrid.Config{Seed: int64(v + 1)})
		if err != nil {
			t.Fatal(err)
		}
		hys[v] = hy
		for _, x := range X {
			y, err := hy.Predict(x)
			if err != nil {
				t.Fatal(err)
			}
			want[v] = append(want[v], y)
		}
	}
	reg, err := registry.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"m0", "m1", "m2"}
	publish := func(v int) error {
		for _, name := range names {
			meta := registry.Meta{Name: name, Workload: "stencil-grid", Machine: "bluewaters"}
			if _, err := reg.SaveHybrid(hys[v], meta); err != nil {
				return err
			}
		}
		return nil
	}
	if err := publish(0); err != nil {
		t.Fatal(err)
	}
	const maxBatch = 4
	srv := New(reg)
	srv.Coalesce = CoalesceConfig{MaxBatch: maxBatch}
	srv.Handler() // builds srv.co
	ctx := context.Background()

	// The clients call the resolve-then-coalesce pair the handler runs,
	// without HTTP between them: a 4 µs score only overlaps another when
	// the calls come this densely.
	const clients, perClient = 16, 400
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for it := 0; it < perClient; it++ {
				if w == 0 && it == perClient/3 {
					if err := publish(1); err != nil {
						t.Error(err)
						return
					}
				}
				i := (w + it) % len(X)
				name := names[(w+it)%len(names)]
				m, err := srv.load(ctx, name, 0)
				if err != nil {
					t.Error(err)
					return
				}
				y, err := srv.co.predict(ctx, m, X[i])
				if v := m.Meta.Version; err != nil || v < 1 || v > versions || y != want[v-1][i] {
					t.Errorf("%s@v%d row %d: served (%v, %v), want bit-identical to that version", name, v, i, y, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	t.Logf("%d rows in %d flushes", srv.Metrics.CoalesceRows.Load(), srv.Metrics.CoalesceFlushes.Load())
	if rows := srv.Metrics.CoalesceRows.Load(); rows != clients*perClient {
		t.Fatalf("coalescer scored %d rows, want %d", rows, clients*perClient)
	}
	if mx := srv.Metrics.CoalesceMaxFlush.Load(); mx > maxBatch {
		t.Fatalf("a flush held %d rows, above MaxBatch %d", mx, maxBatch)
	}
	if swaps := srv.Metrics.ModelSwaps.Load(); swaps != uint64(len(names)) {
		t.Fatalf("%d hot swaps, want one per model", swaps)
	}
	waitIdle(t, srv.co)
}
