package trace

import (
	"testing"

	"lam/internal/cachesim"
)

func TestStencilAccessCount(t *testing.T) {
	cfg := StencilConfig{I: 4, J: 3, K: 2}
	var n uint64
	count, err := Stencil(cfg, func(Access) { n++ })
	if err != nil {
		t.Fatal(err)
	}
	// 8 references (7 reads + 1 write) per interior point.
	want := uint64(4 * 3 * 2 * 8)
	if count != want || n != want {
		t.Errorf("accesses = %d (callback %d), want %d", count, n, want)
	}
}

func TestStencilBlockingPreservesAccessCount(t *testing.T) {
	base := StencilConfig{I: 16, J: 16, K: 8}
	blocked := StencilConfig{I: 16, J: 16, K: 8, BI: 4, BJ: 8, BK: 2}
	var a, b uint64
	if _, err := Stencil(base, func(Access) { a++ }); err != nil {
		t.Fatal(err)
	}
	if _, err := Stencil(blocked, func(Access) { b++ }); err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("blocked traversal emits %d accesses, unblocked %d; must match", b, a)
	}
}

func TestStencilBlockingCoversAllWrites(t *testing.T) {
	// Every interior point must be written exactly once, blocked or not.
	cfg := StencilConfig{I: 10, J: 7, K: 5, BI: 3, BJ: 4, BK: 2}
	writes := map[uint64]int{}
	if _, err := Stencil(cfg, func(a Access) {
		if a.Write {
			writes[a.Addr]++
		}
	}); err != nil {
		t.Fatal(err)
	}
	if len(writes) != 10*7*5 {
		t.Errorf("wrote %d distinct points, want %d", len(writes), 10*7*5)
	}
	for addr, c := range writes {
		if c != 1 {
			t.Errorf("address %d written %d times", addr, c)
		}
	}
}

func TestStencilReadsAndWritesDisjointArrays(t *testing.T) {
	cfg := StencilConfig{I: 8, J: 8, K: 4}
	ii, jj, kk := uint64(8+2), uint64(8+2), uint64(4+2)
	gridBytes := ii * jj * kk * 8
	if _, err := Stencil(cfg, func(a Access) {
		if a.Write && a.Addr < gridBytes {
			t.Fatalf("write at %d landed in the read array (< %d)", a.Addr, gridBytes)
		}
		if !a.Write && a.Addr >= gridBytes {
			t.Fatalf("read at %d landed in the write array", a.Addr)
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestStencilTimeStepsPingPong(t *testing.T) {
	cfg := StencilConfig{I: 4, J: 4, K: 2, TimeSteps: 2}
	ii, jj, kk := uint64(6), uint64(6), uint64(4)
	gridBytes := ii * jj * kk * 8
	sawWriteLow, sawWriteHigh := false, false
	if _, err := Stencil(cfg, func(a Access) {
		if a.Write {
			if a.Addr < gridBytes {
				sawWriteLow = true
			} else {
				sawWriteHigh = true
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	if !sawWriteLow || !sawWriteHigh {
		t.Error("two time steps must write both arrays (ping-pong)")
	}
}

func TestStencilInvalidConfig(t *testing.T) {
	if _, err := Stencil(StencilConfig{I: 0, J: 1, K: 1}, func(Access) {}); err == nil {
		t.Error("expected error for non-positive dims")
	}
}

func TestStencilSmallGridFitsL1AllRevisitsHit(t *testing.T) {
	// A grid whose two arrays fit in one cache must produce exactly
	// compulsory misses: distinct lines touched = misses.
	cfg := StencilConfig{I: 8, J: 8, K: 2}
	c, err := cachesim.NewCache(1<<20, 64, 16)
	if err != nil {
		t.Fatal(err)
	}
	lines := map[uint64]bool{}
	if _, err := Stencil(cfg, func(a Access) {
		lines[a.Addr>>6] = true
		c.Access(a.Addr)
	}); err != nil {
		t.Fatal(err)
	}
	if got, want := c.Misses(), uint64(len(lines)); got != want {
		t.Errorf("misses = %d, want compulsory only = %d", got, want)
	}
}
