package online

import (
	"fmt"
	"slices"
	"sync"
	"testing"
)

// rec records one observation per APE value (observed 100, predicted
// 100-ape, so each value is recorded exactly).
func rec(l *Ledger, name string, version int, apes ...float64) {
	obs := make([]float64, len(apes))
	pred := make([]float64, len(apes))
	for i, a := range apes {
		obs[i], pred[i] = 100, 100-a
	}
	l.Record(name, version, obs, pred)
}

// TestLedgerQuantiles pins the nearest-rank quantile math the gates
// and lam_served_ape ride on: empty input, the ranks themselves, and
// wrap-around once the ring is full.
func TestLedgerQuantiles(t *testing.T) {
	l := NewLedger(4)
	if q := l.Quantiles("m", 1, 0); q != (APEQuantiles{}) {
		t.Fatalf("unknown version: %+v, want zero", q)
	}
	// A zero observation has no APE: the ring exists but stays empty,
	// and an empty ring has no lam_served_ape series.
	l.Record("m", 1, []float64{0}, []float64{5})
	if q := l.Quantiles("m", 1, 0); q != (APEQuantiles{}) {
		t.Fatalf("zero-truth row must be skipped: %+v", q)
	}
	if s := l.Snapshot(); len(s) != 0 {
		t.Fatalf("empty ring in snapshot: %+v", s)
	}

	rec(l, "m", 1, 40, 10, 30, 20)
	want := APEQuantiles{Count: 4, P50: 20, P90: 40, P99: 40}
	if q := l.Quantiles("m", 1, 0); q != want {
		t.Fatalf("quantiles of {10,20,30,40} = %+v, want %+v", q, want)
	}
	// Overwrite the oldest two: the ring is now {30,20,100,100}.
	rec(l, "m", 1, 100, 100)
	want = APEQuantiles{Count: 4, P50: 30, P90: 100, P99: 100}
	if q := l.Quantiles("m", 1, 0); q != want {
		t.Fatalf("after wrap = %+v, want %+v", q, want)
	}
	snap := l.Snapshot()
	if len(snap) != 1 || snap[0] != (ServedAPE{Model: "m", Version: 1, APEQuantiles: want}) {
		t.Fatalf("snapshot = %+v, want the whole ring", snap)
	}
}

// TestLedgerCursor: Quantiles(since) sees only the samples recorded
// after the cursor, before and after the ring wraps, and never more
// than the ring holds.
func TestLedgerCursor(t *testing.T) {
	l := NewLedger(4)
	rec(l, "m", 1, 10, 20)
	since := l.Cursor("m", 1)
	if since != 2 {
		t.Fatalf("cursor after 2 samples = %d, want 2", since)
	}
	if q := l.Quantiles("m", 1, since); q.Count != 0 {
		t.Fatalf("nothing recorded since the cursor, got %+v", q)
	}
	rec(l, "m", 1, 50)
	if q := l.Quantiles("m", 1, since); q != (APEQuantiles{Count: 1, P50: 50, P90: 50, P99: 50}) {
		t.Fatalf("one post-cursor sample, before the wrap: %+v", q)
	}
	// Sequence 5: the ring has wrapped over sample 0.
	rec(l, "m", 1, 60, 70)
	if q := l.Quantiles("m", 1, since); q != (APEQuantiles{Count: 3, P50: 60, P90: 70, P99: 70}) {
		t.Fatalf("three post-cursor samples, after the wrap: %+v", q)
	}
	// Five samples since the cursor, four held: the count is capped and
	// the window is the newest four.
	rec(l, "m", 1, 80, 90)
	want := APEQuantiles{Count: 4, P50: 70, P90: 90, P99: 90}
	if q := l.Quantiles("m", 1, since); q != want {
		t.Fatalf("post-cursor window past capacity: %+v, want %+v", q, want)
	}
	if q := l.Quantiles("m", 1, 0); q != want {
		t.Fatalf("whole ring: %+v, want %+v", q, want)
	}
	// A cursor from the future (a ring that was dropped and re-created)
	// reads nothing rather than underflowing.
	if q := l.Quantiles("m", 1, 1000); q.Count != 0 {
		t.Fatalf("cursor past the sequence: %+v", q)
	}
	// Versions are independent rings.
	if q := l.Quantiles("m", 2, 0); q.Count != 0 {
		t.Fatalf("v2 never recorded: %+v", q)
	}
}

// TestLedgerEvictionSparesLiveCursors walks a model through the
// rollouts that outgrow keepAPEVersions: the pinned incumbent v1 is
// the oldest version, candidates v2..v5 are rolled back one after
// another, and v6 and v7 follow. Lowest-version eviction would drop
// the incumbent the gate is reading; the ledger drops only rings no
// live cursor holds.
func TestLedgerEvictionSparesLiveCursors(t *testing.T) {
	l := NewLedger(8)
	rec(l, "m", 1, 5, 6, 7)
	inc := l.Cursor("m", 1)
	for v := 2; v <= 7; v++ {
		cand := l.Cursor("m", v)
		rec(l, "m", v, float64(10*v))
		rec(l, "m", 1, 8)
		if q := l.Quantiles("m", v, cand); q.Count != 1 || q.P50 != float64(10*v) {
			t.Fatalf("candidate v%d window: %+v", v, q)
		}
		if v < 7 {
			l.Release("m", v) // rolled back
		}
	}
	if q := l.Quantiles("m", 1, inc); q != (APEQuantiles{Count: 6, P50: 8, P90: 8, P99: 8}) {
		t.Fatalf("incumbent window after %d newer versions: %+v", 6, q)
	}
	var versions []int
	for _, s := range l.Snapshot() {
		versions = append(versions, s.Version)
	}
	// v6 and v7 each arrived to keepAPEVersions unheld rings and dropped
	// the lowest (v2, then v3); the held incumbent and candidate stay.
	if want := []int{1, 4, 5, 6, 7}; !slices.Equal(versions, want) {
		t.Fatalf("versions kept = %v, want %v", versions, want)
	}

	// Once released, the incumbent is evictable like any other ring.
	l.Release("m", 1)
	l.Release("m", 7)
	rec(l, "m", 8, 1)
	versions = versions[:0]
	for _, s := range l.Snapshot() {
		versions = append(versions, s.Version)
	}
	if want := []int{5, 6, 7, 8}; !slices.Equal(versions, want) {
		t.Fatalf("after release, versions kept = %v, want %v", versions, want)
	}
}

// TestLedgerConcurrent: Record, Cursor, Quantiles, Release and Snapshot
// from many goroutines across models and versions (run under -race).
func TestLedgerConcurrent(t *testing.T) {
	l := NewLedger(32)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := fmt.Sprintf("m%d", g%3)
			obs, pred := []float64{100, 100, 100}, []float64{90, 80, 70}
			for i := 0; i < 300; i++ {
				v := 1 + (g+i)%6
				since := l.Cursor(name, v)
				l.Record(name, v, obs, pred)
				if q := l.Quantiles(name, v, since); q.Count > 32 {
					t.Errorf("count %d beyond capacity", q.Count)
					return
				}
				l.Release(name, v)
				if i%50 == 0 {
					l.Snapshot()
				}
			}
		}(g)
	}
	wg.Wait()
	for _, s := range l.Snapshot() {
		if s.Count == 0 || s.Count > 32 || s.P50 < 10 || s.P99 > 30 {
			t.Fatalf("inconsistent series after concurrent use: %+v", s)
		}
	}
}

// TestLedgerAllocationFree: once a (model, version) ring exists, Record
// and the gate's quantile read allocate nothing.
func TestLedgerAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	l := NewLedger(512)
	obs, pred := make([]float64, 32), make([]float64, 32)
	for i := range obs {
		obs[i], pred[i] = 100, float64(50+i)
	}
	since := l.Cursor("m", 2)
	l.Record("m", 2, obs, pred)
	l.Quantiles("m", 2, since)
	if n := testing.AllocsPerRun(100, func() { l.Record("m", 2, obs, pred) }); n != 0 {
		t.Errorf("Record allocates %.1f times per call", n)
	}
	if n := testing.AllocsPerRun(100, func() { l.Quantiles("m", 2, since) }); n != 0 {
		t.Errorf("Quantiles allocates %.1f times per call", n)
	}
}
