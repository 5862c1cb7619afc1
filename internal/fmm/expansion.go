package fmm

import "math"

// TaylorCoeffs fills out with the Taylor coefficients of the Laplace
// Green's function b_γ = (1/γ!) ∂^γ (1/|v|) evaluated at v = (x, y, z),
// for all |γ| <= set-degree that out's index set covers. It uses the
// Duan–Krasny recurrence
//
//	n·|v|²·b_γ = −(2n-1)·Σ_d v_d·b_{γ-e_d} − (n-1)·Σ_d b_{γ-2e_d},
//
// with n = |γ| and out-of-range terms zero. The recurrence is validated
// in the tests against closed forms and finite differences.
func TaylorCoeffs(s *MultiIndexSet, x, y, z float64, out []float64) {
	r2 := x*x + y*y + z*z
	r := math.Sqrt(r2)
	out[0] = 1 / r
	inv := 1 / r2
	for i := 1; i < s.Len(); i++ {
		g := s.Idx[i]
		n := float64(g[0] + g[1] + g[2])
		acc := 0.0
		// (2n-1) Σ v_d b_{γ-e_d}
		if g[0] > 0 {
			acc += x * out[s.Pos(g[0]-1, g[1], g[2])]
		}
		if g[1] > 0 {
			acc += y * out[s.Pos(g[0], g[1]-1, g[2])]
		}
		if g[2] > 0 {
			acc += z * out[s.Pos(g[0], g[1], g[2]-1)]
		}
		acc *= -(2*n - 1)
		// −(n−1) Σ b_{γ-2e_d}
		sub := 0.0
		if g[0] > 1 {
			sub += out[s.Pos(g[0]-2, g[1], g[2])]
		}
		if g[1] > 1 {
			sub += out[s.Pos(g[0], g[1]-2, g[2])]
		}
		if g[2] > 1 {
			sub += out[s.Pos(g[0], g[1], g[2]-2)]
		}
		acc -= (n - 1) * sub
		out[i] = acc * inv / n
	}
}

// P2M accumulates multipole moments M_γ = Σ_i q_i (x_i − c)^γ for the
// given particles about centre c into m.
func P2M(s *MultiIndexSet, px, py, pz, q []float64, cx, cy, cz float64, m []float64) {
	for i := range q {
		dx, dy, dz := px[i]-cx, py[i]-cy, pz[i]-cz
		for j, g := range s.Idx {
			m[j] += q[i] * Power(dx, dy, dz, g)
		}
	}
}

// M2M translates child moments (about cc) into parent moments (about
// cp): M_γ(cp) = Σ_{β<=γ} C(γ, β) (cc − cp)^{γ−β} M_β(cc).
func M2M(s *MultiIndexSet, child []float64, ccx, ccy, ccz, cpx, cpy, cpz float64, parent []float64) {
	dx, dy, dz := ccx-cpx, ccy-cpy, ccz-cpz
	for gi, g := range s.Idx {
		acc := 0.0
		for bx := 0; bx <= g[0]; bx++ {
			for by := 0; by <= g[1]; by++ {
				for bz := 0; bz <= g[2]; bz++ {
					bi := s.Pos(bx, by, bz)
					shift := Power(dx, dy, dz, [3]int{g[0] - bx, g[1] - by, g[2] - bz})
					acc += s.MultiBinomial(g, [3]int{bx, by, bz}) * shift * child[bi]
				}
			}
		}
		parent[gi] += acc
	}
}

// m2lContext caches the per-order scratch of repeated M2L applications:
// a double-order index set and its Taylor coefficient buffer.
type m2lContext struct {
	s2   *MultiIndexSet // index set of order 2P
	b    []float64      // Taylor coefficients at order 2P
	mul  []float64      // precomputed (γ+β)!/(γ!β!) per (γ, β) pair
	sign []float64      // (−1)^{|γ|} per source index
}

func newM2LContext(s *MultiIndexSet) *m2lContext {
	s2, err := NewMultiIndexSet(2 * s.P)
	if err != nil {
		panic(err) // unreachable: s.P >= 0
	}
	n := s.Len()
	ctx := &m2lContext{
		s2:   s2,
		b:    make([]float64, s2.Len()),
		mul:  make([]float64, n*n),
		sign: make([]float64, n),
	}
	for gi, g := range s.Idx {
		if (g[0]+g[1]+g[2])%2 == 0 {
			ctx.sign[gi] = 1
		} else {
			ctx.sign[gi] = -1
		}
		for bi, b := range s.Idx {
			f := s2.Binomial[g[0]+b[0]][b[0]] *
				s2.Binomial[g[1]+b[1]][b[1]] *
				s2.Binomial[g[2]+b[2]][b[2]]
			ctx.mul[gi*n+bi] = f
		}
	}
	return ctx
}

// M2L converts source moments (about cs) into a local Taylor expansion
// about ct: L_β += Σ_γ (−1)^{|γ|} M_γ b_{γ+β}(ct − cs) · (γ+β)!/(γ!β!),
// where b are Taylor coefficients of 1/r at the cell separation.
func (ctx *m2lContext) M2L(s *MultiIndexSet, m []float64, csx, csy, csz, ctx0, cty, ctz float64, l []float64) {
	TaylorCoeffs(ctx.s2, ctx0-csx, cty-csy, ctz-csz, ctx.b)
	n := s.Len()
	for bi, bIdx := range s.Idx {
		acc := 0.0
		for gi, g := range s.Idx {
			sum := [3]int{g[0] + bIdx[0], g[1] + bIdx[1], g[2] + bIdx[2]}
			acc += ctx.sign[gi] * m[gi] * ctx.b[ctx.s2.Pos(sum[0], sum[1], sum[2])] * ctx.mul[gi*n+bi]
		}
		l[bi] += acc
	}
}

// L2L translates a parent local expansion (about cp) to a child centre
// cc: L'_α = Σ_{β>=α} C(β, α) (cc − cp)^{β−α} L_β.
func L2L(s *MultiIndexSet, parent []float64, cpx, cpy, cpz, ccx, ccy, ccz float64, child []float64) {
	dx, dy, dz := ccx-cpx, ccy-cpy, ccz-cpz
	for ai, a := range s.Idx {
		acc := 0.0
		for bi, b := range s.Idx {
			if b[0] < a[0] || b[1] < a[1] || b[2] < a[2] {
				continue
			}
			shift := Power(dx, dy, dz, [3]int{b[0] - a[0], b[1] - a[1], b[2] - a[2]})
			acc += s.MultiBinomial(b, a) * shift * parent[bi]
		}
		child[ai] += acc
	}
}

// L2P evaluates a local expansion about c at point (x, y, z):
// φ = Σ_β L_β (p − c)^β.
func L2P(s *MultiIndexSet, l []float64, cx, cy, cz, x, y, z float64) float64 {
	dx, dy, dz := x-cx, y-cy, z-cz
	acc := 0.0
	for bi, b := range s.Idx {
		acc += l[bi] * Power(dx, dy, dz, b)
	}
	return acc
}
