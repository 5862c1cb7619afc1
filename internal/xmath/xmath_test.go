package xmath

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestClamp(t *testing.T) {
	cases := []struct{ v, lo, hi, want float64 }{
		{5, 0, 10, 5},
		{-1, 0, 10, 0},
		{11, 0, 10, 10},
		{0, 0, 10, 0},
		{10, 0, 10, 10},
	}
	for _, c := range cases {
		if got := Clamp(c.v, c.lo, c.hi); got != c.want {
			t.Errorf("Clamp(%v,%v,%v) = %v, want %v", c.v, c.lo, c.hi, got, c.want)
		}
	}
}

func TestClampInt(t *testing.T) {
	if got := ClampInt(5, 1, 3); got != 3 {
		t.Errorf("ClampInt(5,1,3) = %d, want 3", got)
	}
	if got := ClampInt(-5, 1, 3); got != 1 {
		t.Errorf("ClampInt(-5,1,3) = %d, want 1", got)
	}
	if got := ClampInt(2, 1, 3); got != 2 {
		t.Errorf("ClampInt(2,1,3) = %d, want 2", got)
	}
}

func TestLerpEndpoints(t *testing.T) {
	if got := Lerp(2, 8, 0); got != 2 {
		t.Errorf("Lerp(2,8,0) = %v, want 2", got)
	}
	if got := Lerp(2, 8, 1); got != 8 {
		t.Errorf("Lerp(2,8,1) = %v, want 8", got)
	}
	if got := Lerp(2, 8, 0.5); got != 5 {
		t.Errorf("Lerp(2,8,0.5) = %v, want 5", got)
	}
}

func TestInvLerpRoundTrip(t *testing.T) {
	f := func(a, b, tt float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsNaN(tt) {
			return true
		}
		a = math.Mod(a, 1e6)
		b = math.Mod(b, 1e6)
		tt = math.Mod(tt, 1)
		if math.Abs(a-b) < 1e-9 {
			return true
		}
		v := Lerp(a, b, tt)
		got := InvLerp(a, b, v)
		return math.Abs(got-tt) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInvLerpDegenerate(t *testing.T) {
	if got := InvLerp(3, 3, 7); got != 0 {
		t.Errorf("InvLerp(3,3,7) = %v, want 0", got)
	}
}

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Errorf("Mean = %v, want 5", got)
	}
	if got := Variance(xs); got != 4 {
		t.Errorf("Variance = %v, want 4", got)
	}
	if got := StdDev(xs); got != 2 {
		t.Errorf("StdDev = %v, want 2", got)
	}
}

func TestMeanEmpty(t *testing.T) {
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %v, want 0", got)
	}
	if got := Variance(nil); got != 0 {
		t.Errorf("Variance(nil) = %v, want 0", got)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if got := Percentile(xs, 0); got != 1 {
		t.Errorf("P0 = %v, want 1", got)
	}
	if got := Percentile(xs, 100); got != 5 {
		t.Errorf("P100 = %v, want 5", got)
	}
	if got := Percentile(xs, 50); got != 3 {
		t.Errorf("P50 = %v, want 3", got)
	}
	if got := Percentile(xs, 25); got != 2 {
		t.Errorf("P25 = %v, want 2", got)
	}
	if got := Median([]float64{1, 2}); got != 1.5 {
		t.Errorf("Median = %v, want 1.5", got)
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Errorf("Percentile(nil) = %v, want 0", got)
	}
	if got := Percentile([]float64{7}, 90); got != 7 {
		t.Errorf("Percentile(single) = %v, want 7", got)
	}
}

func TestNearestRank(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	ties := []float64{1, 2, 2, 2, 9}
	for _, c := range []struct {
		name string
		asc  []float64
		q    float64
		want float64
	}{
		{"empty", nil, 0.5, 0},
		{"single q=0", []float64{7}, 0, 7},
		{"single q=1", []float64{7}, 1, 7},
		{"q=0 is the minimum", ten, 0, 1},
		{"q=0.5", ten, 0.5, 5},
		{"q=0.9", ten, 0.9, 9},
		{"q=1 is the maximum", ten, 1, 10},
		{"q between ranks rounds up", ten, 0.51, 6},
		{"odd count median", []float64{10, 20, 30}, 0.5, 20},
		{"even count takes the lower middle", []float64{10, 20, 30, 40}, 0.5, 20},
		{"ties q=0.2", ties, 0.2, 1},
		{"ties q=0.5", ties, 0.5, 2},
		{"ties q=0.8", ties, 0.8, 2},
		{"ties q=0.9", ties, 0.9, 9},
		{"q below 0 clamps", ten, -1, 1},
		{"q above 1 clamps", ten, 2, 10},
	} {
		if got := NearestRank(c.asc, c.q); got != c.want {
			t.Errorf("%s: NearestRank(%v, %v) = %v, want %v", c.name, c.asc, c.q, got, c.want)
		}
	}
	// The constraint is cmp.Ordered, so durations and ints work too.
	if got := NearestRank([]int{3, 5, 8}, 0.9); got != 8 {
		t.Errorf("NearestRank(ints, 0.9) = %d, want 8", got)
	}
	if got := NearestRank([]int(nil), 0.5); got != 0 {
		t.Errorf("NearestRank(nil ints) = %d, want 0", got)
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("Percentile mutated its input: %v", xs)
	}
}

func TestCeilDiv(t *testing.T) {
	cases := []struct{ a, b, want int }{
		{10, 5, 2}, {11, 5, 3}, {1, 5, 1}, {5, 5, 1}, {0, 5, 0},
	}
	for _, c := range cases {
		if got := CeilDiv(c.a, c.b); got != c.want {
			t.Errorf("CeilDiv(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestHash64Deterministic(t *testing.T) {
	a := Hash64(1, 2, 3)
	b := Hash64(1, 2, 3)
	if a != b {
		t.Errorf("Hash64 not deterministic: %x vs %x", a, b)
	}
	if Hash64(1, 2, 3) == Hash64(3, 2, 1) {
		t.Error("Hash64 should be order sensitive")
	}
	if Hash64(1) == Hash64(2) {
		t.Error("Hash64 should differ for different inputs")
	}
}

func TestHashFloatRange(t *testing.T) {
	for i := uint64(0); i < 10000; i++ {
		v := HashFloat(i)
		if v < 0 || v >= 1 {
			t.Fatalf("HashFloat(%d) = %v out of [0,1)", i, v)
		}
	}
}

func TestHashFloatUniformity(t *testing.T) {
	// Coarse uniformity check: 10 buckets over 100k draws, each bucket
	// should hold 10% +/- 1.5%.
	const n = 100000
	var buckets [10]int
	for i := uint64(0); i < n; i++ {
		buckets[int(HashFloat(i)*10)]++
	}
	for b, c := range buckets {
		frac := float64(c) / n
		if frac < 0.085 || frac > 0.115 {
			t.Errorf("bucket %d holds %.3f of mass, want ~0.1", b, frac)
		}
	}
}

func TestHashNormalMoments(t *testing.T) {
	const n = 50000
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = HashNormal(uint64(i))
	}
	if m := Mean(xs); math.Abs(m) > 0.02 {
		t.Errorf("HashNormal mean = %v, want ~0", m)
	}
	if s := StdDev(xs); math.Abs(s-1) > 0.02 {
		t.Errorf("HashNormal stddev = %v, want ~1", s)
	}
}

func TestHashConfigSensitivity(t *testing.T) {
	x := []float64{1, 2, 3}
	a := HashConfig(7, x)
	if a != HashConfig(7, []float64{1, 2, 3}) {
		t.Error("HashConfig not deterministic")
	}
	if a == HashConfig(8, x) {
		t.Error("HashConfig should depend on seed")
	}
	if a == HashConfig(7, []float64{1, 2, 3.0000001}) {
		t.Error("HashConfig should depend on feature values")
	}
}

func TestPercentileMatchesSortedExtremes(t *testing.T) {
	f := func(raw []float64) bool {
		xs := raw[:0]
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		return Percentile(xs, 0) == slices.Min(xs) && Percentile(xs, 100) == slices.Max(xs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
