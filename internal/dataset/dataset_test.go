package dataset

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func sample() *Dataset {
	d := New("a", "b")
	d.MustAdd([]float64{1, 2}, 10)
	d.MustAdd([]float64{3, 4}, 20)
	d.MustAdd([]float64{5, 6}, 30)
	d.MustAdd([]float64{7, 8}, 40)
	return d
}

func TestAddArityMismatch(t *testing.T) {
	d := New("a", "b")
	if err := d.Add([]float64{1}, 10); err == nil {
		t.Fatal("expected arity error")
	}
	if err := d.Add([]float64{1, 2, 3}, 10); err == nil {
		t.Fatal("expected arity error")
	}
}

func TestAddCopiesInput(t *testing.T) {
	d := New("a")
	x := []float64{1}
	d.MustAdd(x, 10)
	x[0] = 99
	if d.X[0][0] != 1 {
		t.Error("Add must copy the feature vector")
	}
}

func TestCloneIndependence(t *testing.T) {
	d := sample()
	c := d.Clone()
	c.X[0][0] = 99
	c.Y[0] = 99
	if d.X[0][0] == 99 || d.Y[0] == 99 {
		t.Error("Clone must deep-copy")
	}
	if c.Len() != d.Len() {
		t.Errorf("clone has %d rows, want %d", c.Len(), d.Len())
	}
}

func TestValidate(t *testing.T) {
	d := sample()
	if err := d.Validate(); err != nil {
		t.Fatalf("valid dataset reported invalid: %v", err)
	}
	d.Y = d.Y[:2]
	if err := d.Validate(); err == nil {
		t.Error("expected length mismatch error")
	}
	d = sample()
	d.X[1] = []float64{1}
	if err := d.Validate(); err == nil {
		t.Error("expected arity error")
	}
}

func TestSubset(t *testing.T) {
	d := sample()
	s := d.Subset([]int{2, 0})
	if s.Len() != 2 {
		t.Fatalf("subset len = %d, want 2", s.Len())
	}
	if s.Y[0] != 30 || s.Y[1] != 10 {
		t.Errorf("subset rows wrong: %v", s.Y)
	}
}

// TestSubsetCopiesRows: a subset's rows share one block with each
// other, never with the parent, and appending to one does not spill
// into its neighbour.
func TestSubsetCopiesRows(t *testing.T) {
	d := sample()
	s := d.Subset([]int{2, 0, 1})
	s.X[0][0], s.X[1][1], s.Y[2] = -1, -2, -3
	want := sample()
	for i := range d.X {
		if d.X[i][0] != want.X[i][0] || d.X[i][1] != want.X[i][1] || d.Y[i] != want.Y[i] {
			t.Fatalf("writing to a subset changed parent row %d: %v, %v", i, d.X[i], d.Y[i])
		}
	}
	grown := append(s.X[0], 99)
	if s.X[1][0] != 1 || len(grown) != 3 {
		t.Errorf("appending to subset row 0 overwrote row 1: %v", s.X[1])
	}
	c := d.Clone()
	c.X[3][1] = -4
	w, err := d.WithFeature("am", []float64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	w.X[2][0] = -5
	if d.X[3][1] != 8 || d.X[2][0] != 5 {
		t.Errorf("writing to a clone or an augmented copy changed the parent: %v", d.X)
	}
}

// TestSubsetAllocationsConstant: a subset is the dataset, its names,
// the row headers, one block of values and the responses, whatever the
// row count.
func TestSubsetAllocationsConstant(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := New("a", "b", "c", "d", "e", "f")
	for i := 0; i < 8000; i++ {
		d.MustAdd([]float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}, rng.Float64())
	}
	perm := rng.Perm(d.Len())
	var counts []float64
	for _, k := range []int{1, 320, 8000} {
		counts = append(counts, testing.AllocsPerRun(20, func() { d.Subset(perm[:k]) }))
	}
	for _, c := range counts {
		if c != counts[0] || c > 5 {
			t.Fatalf("Subset of 1, 320 and 8000 rows allocates %v times, want one small constant", counts)
		}
	}
}

func TestSampleFractionPartition(t *testing.T) {
	d := sample()
	rng := rand.New(rand.NewSource(1))
	tr, te, err := d.SampleFraction(0.5, rng)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 2 || te.Len() != 2 {
		t.Fatalf("split sizes = %d/%d, want 2/2", tr.Len(), te.Len())
	}
	// The union of responses must be the original multiset.
	seen := map[float64]int{}
	for _, y := range append(append([]float64{}, tr.Y...), te.Y...) {
		seen[y]++
	}
	for _, y := range d.Y {
		if seen[y] != 1 {
			t.Errorf("response %v appears %d times in union", y, seen[y])
		}
	}
}

func TestSampleFractionAtLeastOne(t *testing.T) {
	d := sample()
	rng := rand.New(rand.NewSource(1))
	tr, _, err := d.SampleFraction(0.01, rng)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 1 {
		t.Errorf("tiny fraction should still yield 1 sample, got %d", tr.Len())
	}
}

func TestSampleFractionBounds(t *testing.T) {
	d := sample()
	rng := rand.New(rand.NewSource(1))
	if _, _, err := d.SampleFraction(-0.1, rng); err == nil {
		t.Error("expected error for negative fraction")
	}
	if _, _, err := d.SampleFraction(1.5, rng); err == nil {
		t.Error("expected error for fraction > 1")
	}
}

func TestSampleNErrors(t *testing.T) {
	d := sample()
	rng := rand.New(rand.NewSource(1))
	if _, _, err := d.SampleN(5, rng); err == nil {
		t.Error("expected error sampling more than n")
	}
	if _, _, err := d.SampleN(-1, rng); err == nil {
		t.Error("expected error for negative k")
	}
}

func TestWithFeature(t *testing.T) {
	d := sample()
	aug, err := d.WithFeature("am", []float64{0.1, 0.2, 0.3, 0.4})
	if err != nil {
		t.Fatal(err)
	}
	if aug.NumFeatures() != 3 {
		t.Fatalf("augmented arity = %d, want 3", aug.NumFeatures())
	}
	if aug.FeatureNames[2] != "am" {
		t.Errorf("augmented name = %q, want am", aug.FeatureNames[2])
	}
	if aug.X[1][2] != 0.2 {
		t.Errorf("augmented value = %v, want 0.2", aug.X[1][2])
	}
	// Original untouched.
	if d.NumFeatures() != 2 {
		t.Error("WithFeature must not mutate the receiver")
	}
	if _, err := d.WithFeature("am", []float64{1}); err == nil {
		t.Error("expected length mismatch error")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	d := sample()
	var buf bytes.Buffer
	if err := d.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != d.Len() || got.NumFeatures() != d.NumFeatures() {
		t.Fatalf("round trip shape %dx%d, want %dx%d", got.Len(), got.NumFeatures(), d.Len(), d.NumFeatures())
	}
	for i := range d.X {
		for j := range d.X[i] {
			if got.X[i][j] != d.X[i][j] {
				t.Errorf("X[%d][%d] = %v, want %v", i, j, got.X[i][j], d.X[i][j])
			}
		}
		if got.Y[i] != d.Y[i] {
			t.Errorf("Y[%d] = %v, want %v", i, got.Y[i], d.Y[i])
		}
	}
}

func TestCSVRoundTripPreservesPrecision(t *testing.T) {
	f := func(vals [4]float64) bool {
		d := New("x")
		for _, v := range vals {
			d.MustAdd([]float64{v}, v*2)
		}
		var buf bytes.Buffer
		if err := d.WriteCSV(&buf); err != nil {
			return false
		}
		got, err := ReadCSV(&buf)
		if err != nil {
			return false
		}
		for i := range vals {
			if got.X[i][0] != vals[i] && !(got.X[i][0] != got.X[i][0] && vals[i] != vals[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []string{
		"",                      // no header
		"only_one_column\n1\n",  // too few columns
		"a,time_s\nnotanum,2\n", // bad feature
		"a,time_s\n1,notanum\n", // bad response
		"a,b,time_s\n1,2\n",     // short row (csv pkg catches this)
	}
	for i, c := range cases {
		if _, err := ReadCSV(strings.NewReader(c)); err == nil {
			t.Errorf("case %d: expected error for %q", i, c)
		}
	}
}

func TestReadCSVHeaderNames(t *testing.T) {
	in := "I,J,K,time_s\n1,2,3,0.5\n"
	d, err := ReadCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.FeatureNames) != 3 || d.FeatureNames[0] != "I" || d.FeatureNames[2] != "K" {
		t.Errorf("feature names = %v", d.FeatureNames)
	}
	if d.Y[0] != 0.5 {
		t.Errorf("Y[0] = %v, want 0.5", d.Y[0])
	}
}

// TestSampleNSharesRowsAndDrawsPerm: SampleN splits the dataset by the
// permutation rand.Perm would draw, leaves the generator where Perm
// leaves it, and hands out the parent's own rows rather than copies.
func TestSampleNSharesRowsAndDrawsPerm(t *testing.T) {
	d := New("a", "b", "c")
	for i := 0; i < 300; i++ {
		d.MustAdd([]float64{float64(i), float64(2 * i), float64(3 * i)}, float64(i))
	}
	for _, k := range []int{0, 1, 9, 150, 300} {
		for seed := int64(1); seed <= 3; seed++ {
			ref, rng := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			perm := ref.Perm(d.Len())
			s, r, err := d.SampleN(k, rng)
			if err != nil {
				t.Fatal(err)
			}
			if s.Len() != k || r.Len() != d.Len()-k {
				t.Fatalf("k=%d: split %d/%d", k, s.Len(), r.Len())
			}
			for i, j := range perm {
				part, at := s, i
				if i >= k {
					part, at = r, i-k
				}
				if part.Y[at] != d.Y[j] || &part.X[at][0] != &d.X[j][0] {
					t.Fatalf("k=%d seed=%d: position %d is not parent row %d, shared", k, seed, i, j)
				}
			}
			if a, b := ref.Int63(), rng.Int63(); a != b {
				t.Fatalf("k=%d seed=%d: SampleN left the generator elsewhere than Perm does", k, seed)
			}
		}
	}
}
