package cachesim

import (
	"testing"
	"testing/quick"

	"lam/internal/machine"
)

func mustCache(t *testing.T, size, line, assoc int) *Cache {
	t.Helper()
	c, err := NewCache(size, line, assoc)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewCacheValidation(t *testing.T) {
	if _, err := NewCache(1024, 60, 4); err == nil {
		t.Error("expected error for non-power-of-two line")
	}
	if _, err := NewCache(1024, 64, 0); err == nil {
		t.Error("expected error for zero associativity")
	}
	if _, err := NewCache(64*7, 64, 4); err == nil {
		t.Error("expected error for lines not divisible by ways")
	}
	if _, err := NewCache(0, 64, 4); err == nil {
		t.Error("expected error for zero size")
	}
}

func TestColdMissThenHit(t *testing.T) {
	c := mustCache(t, 1024, 64, 4)
	if c.Access(0) {
		t.Error("first access must miss (cold)")
	}
	if !c.Access(0) {
		t.Error("second access must hit")
	}
	if !c.Access(63) {
		t.Error("same line must hit")
	}
	if c.Access(64) {
		t.Error("next line must miss")
	}
	if c.Misses() != 2 {
		t.Errorf("misses = %d, want 2", c.Misses())
	}
}

func TestLRUEviction(t *testing.T) {
	// Direct-mapped cache with 2 sets of 1 way, 64B lines (128B total):
	// addresses 0 and 128 collide in set 0.
	c := mustCache(t, 128, 64, 1)
	c.Access(0)   // miss, install
	c.Access(128) // miss, evicts 0
	if c.Access(0) {
		t.Error("line 0 should have been evicted")
	}
}

func TestLRUOrderWithinSet(t *testing.T) {
	// Fully associative 4-way cache of 4 lines.
	c := mustCache(t, 256, 64, 4)
	for _, a := range []uint64{0, 64, 128, 192} {
		c.Access(a)
	}
	c.Access(0)   // touch 0: LRU is now 64
	c.Access(256) // miss: must evict 64
	if !c.Access(0) {
		t.Error("0 was recently used, must survive")
	}
	if !c.Access(128) || !c.Access(192) {
		t.Error("128/192 must survive")
	}
	// Checked last: this miss re-installs 64 and evicts something else.
	if c.Access(64) {
		t.Error("64 was LRU, must have been evicted")
	}
}

func TestWorkingSetFitsAllHitsAfterWarmup(t *testing.T) {
	// Property: any working set smaller than a fully-associative cache
	// hits forever after one warm-up pass, regardless of access order.
	f := func(seed uint8) bool {
		c, err := NewCache(64*64, 64, 64) // 64 lines fully associative
		if err != nil {
			return false
		}
		n := 1 + int(seed)%60
		for i := 0; i < n; i++ {
			c.Access(uint64(i) * 64)
		}
		for pass := 0; pass < 3; pass++ {
			for i := 0; i < n; i++ {
				if !c.Access(uint64(i) * 64) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStreamingNeverHits(t *testing.T) {
	c := mustCache(t, 1024, 64, 4)
	for i := uint64(0); i < 1000; i++ {
		if c.Access(i * 64) {
			t.Fatalf("streaming distinct lines must always miss (line %d)", i)
		}
	}
}

func TestHierarchyDescent(t *testing.T) {
	l1 := mustCache(t, 128, 64, 2)  // 2 lines
	l2 := mustCache(t, 1024, 64, 4) // 16 lines
	h := NewHierarchy(l1, l2)

	if lvl := h.Access(0); lvl != 2 {
		t.Errorf("cold access hit level %d, want 2 (memory)", lvl)
	}
	if lvl := h.Access(0); lvl != 0 {
		t.Errorf("hot access hit level %d, want 0 (L1)", lvl)
	}
	// Evict from tiny L1 by touching two more lines; L2 still holds it.
	h.Access(64)
	h.Access(128)
	if lvl := h.Access(0); lvl != 1 {
		t.Errorf("L1-evicted access hit level %d, want 1 (L2)", lvl)
	}
	if got := l2.Misses(); got != 3 {
		t.Errorf("memory accesses = %d, want 3", got)
	}
}

func TestHierarchyFromMachine(t *testing.T) {
	h, err := FromMachine(machine.BlueWatersXE6())
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Levels()) != 3 {
		t.Fatalf("levels = %d, want 3", len(h.Levels()))
	}
	if lvl := h.Access(0); lvl != 3 {
		t.Errorf("cold access hit level %d, want 3 (memory)", lvl)
	}
}

func TestHierarchyInclusionMissCounts(t *testing.T) {
	// Property: every level's miss count is non-increasing down the
	// hierarchy (an outer level only sees inner misses).
	l1 := mustCache(t, 256, 64, 4)
	l2 := mustCache(t, 2048, 64, 4)
	h := NewHierarchy(l1, l2)
	for i := uint64(0); i < 5000; i++ {
		h.Access((i * 7919) % 65536 << 3)
	}
	if l2.Misses() > l1.Misses() {
		t.Errorf("L2 misses %d exceed L1 misses %d", l2.Misses(), l1.Misses())
	}
}
