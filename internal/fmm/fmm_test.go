package fmm

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func relErrNorm(ps, ref []Particle) float64 {
	num, den := 0.0, 0.0
	for i := range ps {
		d := ps[i].Phi - ref[i].Phi
		num += d * d
		den += ref[i].Phi * ref[i].Phi
	}
	return math.Sqrt(num / den)
}

func TestTreeInvariants(t *testing.T) {
	ps := UniformCube(500, 1)
	tree, err := BuildTree(ps, 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := validateTree(tree, len(ps)); err != nil {
		t.Error(err)
	}
	if tree.Depth() < 2 {
		t.Errorf("tree depth = %d, want >= 2 for 500 particles with q=16", tree.Depth())
	}
}

func TestTreeInvariantsProperty(t *testing.T) {
	f := func(seed uint64, capRaw uint8) bool {
		n := 50 + int(seed%400)
		leafCap := 1 + int(capRaw)%64
		ps := UniformCube(n, seed)
		tree, err := BuildTree(ps, leafCap, 0)
		if err != nil {
			return false
		}
		return validateTree(tree, n) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestTreeErrors(t *testing.T) {
	if _, err := BuildTree(nil, 8, 0); err == nil {
		t.Error("expected error for empty particle set")
	}
	if _, err := BuildTree(UniformCube(10, 1), 0, 0); err == nil {
		t.Error("expected error for zero leaf capacity")
	}
}

func TestTreeDuplicatePointsTerminates(t *testing.T) {
	// 100 coincident particles cannot split below leafCap; MaxDepth
	// must stop subdivision.
	ps := make([]Particle, 100)
	for i := range ps {
		ps[i] = Particle{X: 0.5, Y: 0.5, Z: 0.5, Q: 1}
	}
	tree, err := BuildTree(ps, 8, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := validateTree(tree, len(ps)); err != nil {
		t.Error(err)
	}
}

func TestFMMAccuracyImprovesWithOrder(t *testing.T) {
	ps := UniformCube(800, 2)
	ref := make([]Particle, len(ps))
	copy(ref, ps)
	Direct(ref, 4)

	prev := math.Inf(1)
	for _, k := range []int{2, 4, 6} {
		run := make([]Particle, len(ps))
		copy(run, ps)
		if _, err := Evaluate(run, Config{Order: k, LeafCap: 32}); err != nil {
			t.Fatal(err)
		}
		e := relErrNorm(run, ref)
		t.Logf("order %d: rel L2 error %.3g", k, e)
		if e >= prev {
			t.Errorf("order %d error %v did not improve on %v", k, e, prev)
		}
		prev = e
	}
	if prev > 1e-4 {
		t.Errorf("order-6 error %v, want < 1e-4", prev)
	}
}

func TestFMMMatchesDirectModerateAccuracy(t *testing.T) {
	ps := UniformCube(1500, 3)
	ref := make([]Particle, len(ps))
	copy(ref, ps)
	Direct(ref, 4)
	run := make([]Particle, len(ps))
	copy(run, ps)
	st, err := Evaluate(run, Config{Order: 5, LeafCap: 40})
	if err != nil {
		t.Fatal(err)
	}
	if e := relErrNorm(run, ref); e > 1e-3 {
		t.Errorf("rel error %v, want < 1e-3", e)
	}
	if st.P2PPairs == 0 || st.M2LPairs == 0 {
		t.Errorf("traversal produced no work: %+v", st)
	}
	if st.Leaves == 0 || st.Cells < st.Leaves {
		t.Errorf("inconsistent stats: %+v", st)
	}
}

func TestFMMParallelMatchesSerial(t *testing.T) {
	ps := UniformCube(600, 4)
	serial := make([]Particle, len(ps))
	copy(serial, ps)
	parallel := make([]Particle, len(ps))
	copy(parallel, ps)
	if _, err := Evaluate(serial, Config{Order: 4, LeafCap: 24, Threads: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := Evaluate(parallel, Config{Order: 4, LeafCap: 24, Threads: 8}); err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if math.Abs(serial[i].Phi-parallel[i].Phi) > 1e-12*(1+math.Abs(serial[i].Phi)) {
			t.Fatalf("particle %d: serial %v vs parallel %v", i, serial[i].Phi, parallel[i].Phi)
		}
	}
}

func TestFMMConfigValidation(t *testing.T) {
	ps := UniformCube(10, 5)
	if _, err := Evaluate(ps, Config{Order: 0, LeafCap: 8}); err == nil {
		t.Error("expected error for order 0")
	}
	if _, err := Evaluate(ps, Config{Order: 2, LeafCap: 0}); err == nil {
		t.Error("expected error for leaf cap 0")
	}
	if _, err := Evaluate(ps, Config{Order: 2, LeafCap: 8, Theta: 1.5}); err == nil {
		t.Error("expected error for theta >= 1")
	}
}

func TestFMMSmallSystemExact(t *testing.T) {
	// With everything in one leaf, FMM degenerates to P2P = direct.
	ps := UniformCube(30, 6)
	ref := make([]Particle, len(ps))
	copy(ref, ps)
	Direct(ref, 1)
	run := make([]Particle, len(ps))
	copy(run, ps)
	if _, err := Evaluate(run, Config{Order: 2, LeafCap: 64}); err != nil {
		t.Fatal(err)
	}
	for i := range run {
		if math.Abs(run[i].Phi-ref[i].Phi) > 1e-12*(1+math.Abs(ref[i].Phi)) {
			t.Fatalf("particle %d: fmm %v vs direct %v", i, run[i].Phi, ref[i].Phi)
		}
	}
}

func TestDirectSymmetricPair(t *testing.T) {
	ps := []Particle{
		{X: 0, Y: 0, Z: 0, Q: 2},
		{X: 3, Y: 4, Z: 0, Q: 5},
	}
	Direct(ps, 1)
	// r = 5: phi0 = 5/5 = 1, phi1 = 2/5 = 0.4.
	if math.Abs(ps[0].Phi-1) > 1e-14 {
		t.Errorf("phi0 = %v, want 1", ps[0].Phi)
	}
	if math.Abs(ps[1].Phi-0.4) > 1e-14 {
		t.Errorf("phi1 = %v, want 0.4", ps[1].Phi)
	}
}

func TestDirectCoincidentParticlesSkipped(t *testing.T) {
	ps := []Particle{
		{X: 1, Y: 1, Z: 1, Q: 1},
		{X: 1, Y: 1, Z: 1, Q: 1},
		{X: 2, Y: 1, Z: 1, Q: 1},
	}
	Direct(ps, 1)
	for i, p := range ps {
		if math.IsInf(p.Phi, 0) || math.IsNaN(p.Phi) {
			t.Errorf("particle %d potential = %v", i, p.Phi)
		}
	}
}

func TestDirectParallelMatchesSerial(t *testing.T) {
	ps := UniformCube(400, 7)
	a := make([]Particle, len(ps))
	copy(a, ps)
	b := make([]Particle, len(ps))
	copy(b, ps)
	Direct(a, 1)
	Direct(b, 8)
	for i := range a {
		if a[i].Phi != b[i].Phi {
			t.Fatalf("particle %d: serial %v vs parallel %v", i, a[i].Phi, b[i].Phi)
		}
	}
}

func TestUniformCubeDeterministicAndBounded(t *testing.T) {
	a := UniformCube(100, 42)
	b := UniformCube(100, 42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("UniformCube not deterministic")
		}
		if a[i].X < 0 || a[i].X >= 1 || a[i].Y < 0 || a[i].Y >= 1 || a[i].Z < 0 || a[i].Z >= 1 {
			t.Fatalf("particle %d outside unit cube: %+v", i, a[i])
		}
	}
	c := UniformCube(100, 43)
	if a[0] == c[0] {
		t.Error("different seeds should differ")
	}
	q := 0.0
	for _, p := range a {
		q += p.Q
	}
	if math.Abs(q-1) > 1e-9 {
		t.Errorf("total charge = %v, want 1", q)
	}
}

func TestFMMStatsScaleWithLeafCap(t *testing.T) {
	// Smaller q → more leaves → more M2L pairs; larger q → more P2P
	// interactions. This is the trade-off the paper's FMM analytical
	// model captures (Eqs. 8 and 9).
	ps := UniformCube(2000, 8)
	small := make([]Particle, len(ps))
	copy(small, ps)
	big := make([]Particle, len(ps))
	copy(big, ps)
	stSmall, err := Evaluate(small, Config{Order: 2, LeafCap: 8})
	if err != nil {
		t.Fatal(err)
	}
	stBig, err := Evaluate(big, Config{Order: 2, LeafCap: 256})
	if err != nil {
		t.Fatal(err)
	}
	if stSmall.Leaves <= stBig.Leaves {
		t.Errorf("q=8 leaves %d should exceed q=256 leaves %d", stSmall.Leaves, stBig.Leaves)
	}
	if stSmall.P2PInteractions >= stBig.P2PInteractions {
		t.Errorf("q=8 P2P %d should be below q=256 P2P %d", stSmall.P2PInteractions, stBig.P2PInteractions)
	}
}

// validateTree checks the tree invariants: every particle appears in exactly
// one leaf, children partition their parent's particles, leaves respect
// the capacity (unless at MaxDepth), and children lie inside parents.
func validateTree(t *Tree, n int) error {
	seen := make([]int, n)
	for _, c := range t.Cells {
		if c.IsLeaf() {
			if len(c.Particles) > t.LeafCap && c.Level < t.MaxDepth {
				return fmt.Errorf("fmm: leaf at level %d holds %d > %d particles", c.Level, len(c.Particles), t.LeafCap)
			}
			for _, i := range c.Particles {
				seen[i]++
			}
		} else {
			total := 0
			for _, ch := range c.Children {
				total += len(ch.Particles)
				if math.Abs(ch.CX-c.CX) > c.Half || math.Abs(ch.CY-c.CY) > c.Half || math.Abs(ch.CZ-c.CZ) > c.Half {
					return fmt.Errorf("fmm: child centre escapes parent cube at level %d", c.Level)
				}
				if ch.Half*2 != c.Half {
					return fmt.Errorf("fmm: child half-width %v not half of parent %v", ch.Half, c.Half)
				}
			}
			if total != len(c.Particles) {
				return fmt.Errorf("fmm: children hold %d particles, parent %d", total, len(c.Particles))
			}
		}
	}
	for i, s := range seen {
		if s != 1 {
			return fmt.Errorf("fmm: particle %d appears in %d leaves", i, s)
		}
	}
	return nil
}
