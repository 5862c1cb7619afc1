package fmm

import (
	"math"
	"testing"
)

func TestMultiIndexSetEnumeration(t *testing.T) {
	s, err := NewMultiIndexSet(3)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 20 {
		t.Fatalf("len = %d, want (3+1)(3+2)(3+3)/6 = 20", s.Len())
	}
	// Every index has |γ| <= 3, appears once, and Pos inverts Idx.
	seen := map[[3]int]bool{}
	for i, g := range s.Idx {
		if g[0]+g[1]+g[2] > 3 || g[0] < 0 || g[1] < 0 || g[2] < 0 {
			t.Errorf("invalid multi-index %v", g)
		}
		if seen[g] {
			t.Errorf("duplicate multi-index %v", g)
		}
		seen[g] = true
		if s.Pos(g[0], g[1], g[2]) != i {
			t.Errorf("Pos(%v) = %d, want %d", g, s.Pos(g[0], g[1], g[2]), i)
		}
	}
	if s.Pos(4, 0, 0) != -1 {
		t.Error("Pos beyond P should be -1")
	}
	if _, err := NewMultiIndexSet(-1); err == nil {
		t.Error("expected error for negative order")
	}
}

func TestMultiIndexGradedOrder(t *testing.T) {
	s, _ := NewMultiIndexSet(4)
	degree := func(i int) int { return s.Idx[i][0] + s.Idx[i][1] + s.Idx[i][2] }
	for i := 1; i < s.Len(); i++ {
		if degree(i) < degree(i-1) {
			t.Fatalf("indices not graded at %d: degree %d after %d", i, degree(i), degree(i-1))
		}
	}
}

func TestFactorialAndBinomialTables(t *testing.T) {
	s, _ := NewMultiIndexSet(5)
	if s.Factorial[5] != 120 {
		t.Errorf("5! = %v, want 120", s.Factorial[5])
	}
	if s.Binomial[6][2] != 15 {
		t.Errorf("C(6,2) = %v, want 15", s.Binomial[6][2])
	}
	if s.Binomial[4][0] != 1 || s.Binomial[4][4] != 1 {
		t.Error("binomial boundary values wrong")
	}
	if got := s.MultiBinomial([3]int{3, 2, 1}, [3]int{1, 1, 0}); got != 3*2*1 {
		t.Errorf("MultiBinomial = %v, want 6", got)
	}
}

func TestPower(t *testing.T) {
	if got := Power(2, 3, 5, [3]int{2, 1, 0}); got != 12 {
		t.Errorf("Power = %v, want 12", got)
	}
	if got := Power(2, 3, 5, [3]int{0, 0, 0}); got != 1 {
		t.Errorf("Power^0 = %v, want 1", got)
	}
}

// closed-form Taylor coefficients b_γ = D_γ(1/r)/γ! for low orders.
func closedFormCoeff(g [3]int, x, y, z float64) (float64, bool) {
	r2 := x*x + y*y + z*z
	r := math.Sqrt(r2)
	r3 := r * r2
	r5 := r3 * r2
	r7 := r5 * r2
	switch g {
	case [3]int{0, 0, 0}:
		return 1 / r, true
	case [3]int{1, 0, 0}:
		return -x / r3, true
	case [3]int{0, 1, 0}:
		return -y / r3, true
	case [3]int{0, 0, 1}:
		return -z / r3, true
	case [3]int{2, 0, 0}:
		return (3*x*x/r5 - 1/r3) / 2, true
	case [3]int{0, 2, 0}:
		return (3*y*y/r5 - 1/r3) / 2, true
	case [3]int{0, 0, 2}:
		return (3*z*z/r5 - 1/r3) / 2, true
	case [3]int{1, 1, 0}:
		return 3 * x * y / r5, true
	case [3]int{1, 0, 1}:
		return 3 * x * z / r5, true
	case [3]int{0, 1, 1}:
		return 3 * y * z / r5, true
	case [3]int{1, 1, 1}:
		return -15 * x * y * z / r7, true
	}
	return 0, false
}

func TestTaylorCoeffsMatchClosedForms(t *testing.T) {
	s, _ := NewMultiIndexSet(3)
	b := make([]float64, s.Len())
	points := [][3]float64{
		{1, 0, 0}, {0.5, -1.2, 2.0}, {-3, 4, -5}, {0.1, 0.1, 0.1}, {2, -2, 1},
	}
	for _, p := range points {
		TaylorCoeffs(s, p[0], p[1], p[2], b)
		for i, g := range s.Idx {
			want, ok := closedFormCoeff(g, p[0], p[1], p[2])
			if !ok {
				continue
			}
			if math.Abs(b[i]-want) > 1e-10*(1+math.Abs(want)) {
				t.Errorf("point %v index %v: coeff %v, want %v", p, g, b[i], want)
			}
		}
	}
}

func TestTaylorCoeffsMatchFiniteDifferences(t *testing.T) {
	// Verify a higher-order coefficient (|γ|=4) against central finite
	// differences of lower-order recurrence values, exploiting
	// b_{γ+e_x}·(γ_x+1) = ∂_x b_γ / ... — concretely:
	// D_{γ+e_x} = ∂_x D_γ, so b_{γ+e_x} = ∂_x(b_γ · γ!)/ (γ+e_x)!.
	s4, _ := NewMultiIndexSet(4)
	s3, _ := NewMultiIndexSet(3)
	b4 := make([]float64, s4.Len())
	bp := make([]float64, s3.Len())
	bm := make([]float64, s3.Len())
	x, y, z := 1.3, -0.7, 2.1
	h := 1e-5
	TaylorCoeffs(s4, x, y, z, b4)
	TaylorCoeffs(s3, x+h, y, z, bp)
	TaylorCoeffs(s3, x-h, y, z, bm)
	for i3, g := range s3.Idx {
		if g[0]+g[1]+g[2] != 3 {
			continue
		}
		// ∂_x b_γ ≈ (b_γ(x+h) − b_γ(x−h)) / 2h; b_{γ+e_x} = ∂_x b_γ / (γ_x+1).
		dfdx := (bp[i3] - bm[i3]) / (2 * h)
		want := dfdx / float64(g[0]+1)
		got := b4[s4.Pos(g[0]+1, g[1], g[2])]
		if math.Abs(got-want) > 1e-5*(1+math.Abs(want)) {
			t.Errorf("index %v + e_x: coeff %v, want %v (FD)", g, got, want)
		}
	}
}

func TestP2MSinglePointExpansion(t *testing.T) {
	// One unit charge at the centre: M_0 = 1, all higher moments 0.
	s, _ := NewMultiIndexSet(3)
	m := make([]float64, s.Len())
	P2M(s, []float64{2}, []float64{3}, []float64{4}, []float64{1}, 2, 3, 4, m)
	if m[0] != 1 {
		t.Errorf("M_0 = %v, want 1", m[0])
	}
	for i := 1; i < len(m); i++ {
		if m[i] != 0 {
			t.Errorf("M[%d] = %v, want 0", i, m[i])
		}
	}
}

func TestM2PConvergesToDirect(t *testing.T) {
	// A cluster near the origin evaluated far away: error must fall
	// rapidly with order.
	srcX := []float64{0.1, -0.05, 0.08, -0.1}
	srcY := []float64{0.02, 0.09, -0.04, 0.06}
	srcZ := []float64{-0.07, 0.01, 0.05, -0.03}
	srcQ := []float64{1, 2, -1, 0.5}
	tx, ty, tz := 3.0, 2.0, 2.5
	exact := 0.0
	for i := range srcQ {
		dx, dy, dz := tx-srcX[i], ty-srcY[i], tz-srcZ[i]
		exact += srcQ[i] / math.Sqrt(dx*dx+dy*dy+dz*dz)
	}
	var prevErr float64 = math.Inf(1)
	for _, p := range []int{1, 3, 5, 7} {
		s, _ := NewMultiIndexSet(p)
		m := make([]float64, s.Len())
		P2M(s, srcX, srcY, srcZ, srcQ, 0, 0, 0, m)
		got := m2p(s, m, 0, 0, 0, tx, ty, tz)
		err := math.Abs(got - exact)
		if err >= prevErr {
			t.Errorf("order %d error %v did not shrink from %v", p, err, prevErr)
		}
		prevErr = err
	}
	if prevErr > 1e-10 {
		t.Errorf("order-7 M2P error %v, want < 1e-10", prevErr)
	}
}

func TestM2MPreservesFarField(t *testing.T) {
	// Moments about a child centre translated to the parent must give
	// the same far potential as direct P2M about the parent.
	s, _ := NewMultiIndexSet(6)
	srcX := []float64{0.45, 0.55, 0.52}
	srcY := []float64{0.48, 0.51, 0.46}
	srcZ := []float64{0.53, 0.47, 0.55}
	srcQ := []float64{1, -2, 0.7}

	mChild := make([]float64, s.Len())
	P2M(s, srcX, srcY, srcZ, srcQ, 0.5, 0.5, 0.5, mChild)
	mParent := make([]float64, s.Len())
	M2M(s, mChild, 0.5, 0.5, 0.5, 0.25, 0.25, 0.25, mParent)

	mDirect := make([]float64, s.Len())
	P2M(s, srcX, srcY, srcZ, srcQ, 0.25, 0.25, 0.25, mDirect)

	for i := range mParent {
		if math.Abs(mParent[i]-mDirect[i]) > 1e-9*(1+math.Abs(mDirect[i])) {
			t.Errorf("moment %d: M2M %v vs direct %v", i, mParent[i], mDirect[i])
		}
	}
}

func TestM2LPlusL2PMatchesM2P(t *testing.T) {
	// Multipole → local → evaluate must agree with multipole → evaluate
	// to truncation accuracy for well-separated boxes.
	s, _ := NewMultiIndexSet(8)
	srcX := []float64{0.1, -0.1, 0.05}
	srcY := []float64{-0.08, 0.03, 0.09}
	srcZ := []float64{0.04, -0.06, 0.02}
	srcQ := []float64{2, 1, -1.5}
	m := make([]float64, s.Len())
	P2M(s, srcX, srcY, srcZ, srcQ, 0, 0, 0, m)

	lcx, lcy, lcz := 4.0, 0.5, -0.5 // well separated local centre
	ctx := newM2LContext(s)
	l := make([]float64, s.Len())
	ctx.M2L(s, m, 0, 0, 0, lcx, lcy, lcz, l)

	// Evaluation points inside the local box.
	for _, d := range [][3]float64{{0, 0, 0}, {0.2, -0.1, 0.15}, {-0.15, 0.2, -0.1}} {
		x, y, z := lcx+d[0], lcy+d[1], lcz+d[2]
		exact := 0.0
		for i := range srcQ {
			dx, dy, dz := x-srcX[i], y-srcY[i], z-srcZ[i]
			exact += srcQ[i] / math.Sqrt(dx*dx+dy*dy+dz*dz)
		}
		got := L2P(s, l, lcx, lcy, lcz, x, y, z)
		if math.Abs(got-exact) > 1e-7*(1+math.Abs(exact)) {
			t.Errorf("point %v: local eval %v, exact %v", d, got, exact)
		}
	}
}

func TestL2LPreservesEvaluation(t *testing.T) {
	// Shifting a local expansion to a sub-centre must not change values
	// (exactly, since local expansions are polynomials).
	s, _ := NewMultiIndexSet(5)
	l := make([]float64, s.Len())
	for i := range l {
		l[i] = 1 / float64(i+1) // arbitrary polynomial
	}
	child := make([]float64, s.Len())
	L2L(s, l, 0, 0, 0, 0.3, -0.2, 0.1, child)
	for _, d := range [][3]float64{{0.35, -0.15, 0.12}, {0.25, -0.3, 0.05}} {
		want := L2P(s, l, 0, 0, 0, d[0], d[1], d[2])
		got := L2P(s, child, 0.3, -0.2, 0.1, d[0], d[1], d[2])
		if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
			t.Errorf("point %v: shifted %v, original %v", d, got, want)
		}
	}
}

// m2p evaluates a multipole expansion about c directly at a
// well-separated point: φ = Σ_γ (−1)^{|γ|} M_γ b_γ(p − c), which
// validates P2M/M2M independently of the local-expansion path.
func m2p(s *MultiIndexSet, m []float64, cx, cy, cz, x, y, z float64) float64 {
	b := make([]float64, s.Len())
	TaylorCoeffs(s, x-cx, y-cy, z-cz, b)
	acc := 0.0
	sign := 1.0
	for gi, g := range s.Idx {
		if (g[0]+g[1]+g[2])%2 == 0 {
			sign = 1
		} else {
			sign = -1
		}
		acc += sign * m[gi] * b[gi]
	}
	return acc
}
