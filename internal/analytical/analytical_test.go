package analytical

import (
	"math"
	"testing"
	"testing/quick"

	"lam/internal/machine"
)

func stencilModel() *StencilModel {
	return &StencilModel{Machine: machine.BlueWatersXE6(), WriteAllocate: true}
}

func TestStencilPredictPositiveAndFinite(t *testing.T) {
	m := stencilModel()
	for _, p := range []StencilParams{
		{I: 16, J: 16, K: 1},
		{I: 128, J: 128, K: 128},
		{I: 256, J: 256, K: 256},
		{I: 64, J: 64, K: 64, TI: 16, TJ: 16, TK: 16},
		{I: 100, J: 100, K: 100, TI: 7, TJ: 13, TK: 3},
	} {
		got, err := m.Predict(p)
		if err != nil {
			t.Fatalf("%+v: %v", p, err)
		}
		if got <= 0 || math.IsInf(got, 0) || math.IsNaN(got) {
			t.Errorf("%+v: predicted %v", p, got)
		}
	}
}

func TestStencilMonotoneInGridSize(t *testing.T) {
	m := stencilModel()
	prev := 0.0
	for _, dim := range []int{32, 64, 128, 192, 256} {
		got, err := m.Predict(StencilParams{I: dim, J: dim, K: dim})
		if err != nil {
			t.Fatal(err)
		}
		if got <= prev {
			t.Errorf("time for %d³ = %v not greater than for smaller grid %v", dim, got, prev)
		}
		prev = got
	}
}

func TestStencilTimeStepsScaleLinearly(t *testing.T) {
	m := stencilModel()
	one, err := m.Predict(StencilParams{I: 64, J: 64, K: 64, TimeSteps: 1})
	if err != nil {
		t.Fatal(err)
	}
	ten, err := m.Predict(StencilParams{I: 64, J: 64, K: 64, TimeSteps: 10})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ten-10*one) > 1e-9*ten {
		t.Errorf("10 steps = %v, want 10 × %v", ten, one)
	}
}

func TestStencilTinyBlocksCostMore(t *testing.T) {
	// Degenerate 1×1×1 blocking re-reads ghost planes per point: the
	// model must charge more traffic than the unblocked traversal.
	m := stencilModel()
	unblocked, err := m.Predict(StencilParams{I: 64, J: 64, K: 64})
	if err != nil {
		t.Fatal(err)
	}
	tiny, err := m.Predict(StencilParams{I: 64, J: 64, K: 64, TI: 1, TJ: 1, TK: 1})
	if err != nil {
		t.Fatal(err)
	}
	if tiny <= unblocked {
		t.Errorf("1×1×1 blocks %v should cost more than unblocked %v", tiny, unblocked)
	}
}

func TestStencilFullBlockEqualsUnblocked(t *testing.T) {
	m := stencilModel()
	a, err := m.Predict(StencilParams{I: 64, J: 48, K: 32})
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Predict(StencilParams{I: 64, J: 48, K: 32, TI: 64, TJ: 48, TK: 32})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("explicit full block %v != unblocked %v", b, a)
	}
}

func TestStencilWriteAllocateCostsMore(t *testing.T) {
	wa := stencilModel()
	nwa := stencilModel()
	nwa.WriteAllocate = false
	a, _ := wa.Predict(StencilParams{I: 128, J: 128, K: 128})
	b, _ := nwa.Predict(StencilParams{I: 128, J: 128, K: 128})
	if a <= b {
		t.Errorf("write-allocate %v should exceed no-write-allocate %v", a, b)
	}
}

func TestStencilErrors(t *testing.T) {
	m := &StencilModel{}
	if _, err := m.Predict(StencilParams{I: 4, J: 4, K: 4}); err == nil {
		t.Error("expected error without machine")
	}
	m = stencilModel()
	if _, err := m.Predict(StencilParams{I: 0, J: 4, K: 4}); err == nil {
		t.Error("expected error for bad grid")
	}
}

func TestNplanesMonotoneDecreasingInCapacity(t *testing.T) {
	// Property: larger caches never fetch more planes, and the value
	// stays within [1, 2P−1].
	f := func(capRaw, gridRaw uint16) bool {
		pread := 3.0
		ii := 16 + float64(gridRaw%512)
		jj := ii + 2
		sread := ii * jj
		stotal := pread*sread + ii*(jj-2)
		rcol := pread / (2*pread - 1)
		prev := math.Inf(1)
		for c := 64.0; c <= 1e8; c *= 1.5 {
			np := nplanes(c, pread, stotal, sread, ii, rcol)
			if np < 1 || np > 2*pread-1 {
				return false
			}
			if np > prev+1e-12 {
				return false
			}
			prev = np
		}
		_ = capRaw
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestNplanesLimits(t *testing.T) {
	pread, ii := 3.0, 130.0
	jj := 132.0
	sread := ii * jj
	stotal := pread * sread
	rcol := pread / (2*pread - 1)
	if got := nplanes(1e9, pread, stotal, sread, ii, rcol); got != 1 {
		t.Errorf("huge cache nplanes = %v, want 1", got)
	}
	if got := nplanes(1, pread, stotal, sread, ii, rcol); got != 2*pread-1 {
		t.Errorf("tiny cache nplanes = %v, want %v", got, 2*pread-1)
	}
}

func fmmModel() *FMMModel {
	return &FMMModel{Machine: machine.BlueWatersXE6()}
}

func TestFMMPredictPositive(t *testing.T) {
	m := fmmModel()
	for _, p := range []FMMParams{
		{N: 4096, Q: 64, K: 2},
		{N: 16384, Q: 512, K: 12},
		{N: 8192, Q: 1, K: 4},
	} {
		got, err := m.Predict(p)
		if err != nil {
			t.Fatalf("%+v: %v", p, err)
		}
		if got <= 0 || math.IsNaN(got) || math.IsInf(got, 0) {
			t.Errorf("%+v: predicted %v", p, got)
		}
	}
}

func TestFMMLinearInN(t *testing.T) {
	m := fmmModel()
	a, _ := m.Predict(FMMParams{N: 4096, Q: 64, K: 6})
	b, _ := m.Predict(FMMParams{N: 8192, Q: 64, K: 6})
	if math.Abs(b-2*a) > 1e-9*b {
		t.Errorf("doubling N: %v, want %v (model is O(N))", b, 2*a)
	}
}

func TestFMMOrderGrowsSteeply(t *testing.T) {
	m := fmmModel()
	low, _ := m.Predict(FMMParams{N: 8192, Q: 64, K: 2})
	high, _ := m.Predict(FMMParams{N: 8192, Q: 64, K: 12})
	if high < low*100 {
		t.Errorf("k=12 (%v) should dwarf k=2 (%v): M2L is O(k⁶)", high, low)
	}
}

func TestFMMQTradeoff(t *testing.T) {
	// P2P grows with q, M2L shrinks with q: the model must be convex-ish
	// with an interior optimum for moderate k.
	m := fmmModel()
	tiny, _ := m.Predict(FMMParams{N: 16384, Q: 2, K: 6})
	mid, _ := m.Predict(FMMParams{N: 16384, Q: 128, K: 6})
	huge, _ := m.Predict(FMMParams{N: 16384, Q: 8192, K: 6})
	if mid >= tiny || mid >= huge {
		t.Errorf("q trade-off broken: tiny=%v mid=%v huge=%v", tiny, mid, huge)
	}
}

func TestFMMOptimalQ(t *testing.T) {
	m := fmmModel()
	q, tm, err := m.OptimalQ(16384, 6, 1, 2048)
	if err != nil {
		t.Fatal(err)
	}
	if q <= 2 || q >= 2048 {
		t.Errorf("optimal q = %d, want interior optimum", q)
	}
	// Check optimality against neighbours.
	left, _ := m.Predict(FMMParams{N: 16384, Q: q - 1, K: 6})
	right, _ := m.Predict(FMMParams{N: 16384, Q: q + 1, K: 6})
	if tm > left || tm > right {
		t.Errorf("reported optimum %v worse than neighbours %v/%v", tm, left, right)
	}
	if _, _, err := m.OptimalQ(16384, 6, 10, 5); err == nil {
		t.Error("expected error for empty q range")
	}
}

func TestFMMErrors(t *testing.T) {
	m := &FMMModel{}
	if _, err := m.Predict(FMMParams{N: 10, Q: 1, K: 1}); err == nil {
		t.Error("expected error without machine")
	}
	m = fmmModel()
	for _, p := range []FMMParams{{N: 0, Q: 1, K: 1}, {N: 10, Q: 0, K: 1}, {N: 10, Q: 1, K: 0}} {
		if _, err := m.Predict(p); err == nil {
			t.Errorf("expected error for %+v", p)
		}
	}
}
