package fmm

import (
	"math"
	"testing"
)

func TestPlummerIsClustered(t *testing.T) {
	// The Plummer core concentrates mass: the tree must be deeper than
	// for the same number of uniform particles.
	plummer := plummerSphere(2000, 1)
	uniform := UniformCube(2000, 1)
	tp, err := BuildTree(plummer, 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	tu, err := BuildTree(uniform, 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tp.Depth() <= tu.Depth() {
		t.Errorf("plummer depth %d should exceed uniform depth %d", tp.Depth(), tu.Depth())
	}
	if err := validateTree(tp, len(plummer)); err != nil {
		t.Error(err)
	}
}

func TestFMMAccurateOnClusteredDistribution(t *testing.T) {
	// The adaptive tree + dual-tree traversal must stay accurate on a
	// strongly non-uniform distribution.
	ps := plummerSphere(1200, 7)
	ref := make([]Particle, len(ps))
	copy(ref, ps)
	Direct(ref, 4)
	run := make([]Particle, len(ps))
	copy(run, ps)
	if _, err := Evaluate(run, Config{Order: 5, LeafCap: 32}); err != nil {
		t.Fatal(err)
	}
	if e := relErrNorm(run, ref); e > 2e-3 {
		t.Errorf("clustered rel error %v, want < 2e-3", e)
	}
}

// plummerSphere places n particles following the Plummer model — the
// standard clustered astrophysical distribution — scaled into the unit
// cube. Unlike UniformCube it produces a strongly adaptive oct-tree
// (deep where the core is dense, shallow outside), exercising the
// traversal paths a uniform distribution never reaches.
func plummerSphere(n int, seed uint64) []Particle {
	ps := make([]Particle, n)
	state := seed*0x9e3779b97f4a7c15 + 0x1234567
	next := func() float64 {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		return float64(z>>11) / float64(1<<53)
	}
	q := 1 / float64(n)
	for i := range ps {
		// Inverse-CDF radius of the Plummer profile, clipped to keep
		// the far tail inside a bounded box.
		m := 0.01 + 0.98*next()
		r := 1 / math.Sqrt(math.Pow(m, -2.0/3.0)-1)
		if r > 4 {
			r = 4
		}
		// Uniform direction.
		z := 2*next() - 1
		phi := 2 * math.Pi * next()
		s := math.Sqrt(1 - z*z)
		// Scale into the unit cube around (0.5, 0.5, 0.5).
		ps[i] = Particle{
			X: 0.5 + 0.12*r*s*math.Cos(phi),
			Y: 0.5 + 0.12*r*s*math.Sin(phi),
			Z: 0.5 + 0.12*r*z,
			Q: q,
		}
	}
	return ps
}
