// Package fmm is a from-scratch fast multipole method for the 3-D
// Laplace kernel 1/r — the repository's stand-in for ExaFMM
// (Section II.B of the paper). It implements the six kernels the paper
// names (P2M, M2M, M2L, L2L, L2P, P2P) with Cartesian Taylor expansions
// of order k, an adaptive oct-tree with a leaf capacity q, a dual-tree
// traversal with a multipole acceptance criterion, goroutine parallelism
// over target cells, and a direct O(N²) summation baseline.
//
// The configuration space matches the paper's modelling vector
// X = (t, N, q, k): threads, particles, particles per leaf cell and
// expansion order.
package fmm

import "fmt"

// MultiIndexSet enumerates the 3-D multi-indices γ = (gx, gy, gz) with
// |γ| <= P, graded lexicographically, and precomputes the combinatorial
// tables the expansion operators need. One set is shared per FMM run.
type MultiIndexSet struct {
	// P is the maximum total degree.
	P int
	// Idx lists the multi-indices in graded order.
	Idx [][3]int
	// pos maps (gx, gy, gz) to its position in Idx.
	pos map[[3]int]int
	// Factorial holds n! for n <= 2P+2.
	Factorial []float64
	// Binomial holds C(n, k) for n, k <= 2P+2.
	Binomial [][]float64
}

// NewMultiIndexSet builds the index set for maximum degree p >= 0.
func NewMultiIndexSet(p int) (*MultiIndexSet, error) {
	if p < 0 {
		return nil, fmt.Errorf("fmm: negative expansion order %d", p)
	}
	s := &MultiIndexSet{P: p, pos: make(map[[3]int]int)}
	for n := 0; n <= p; n++ {
		for gx := n; gx >= 0; gx-- {
			for gy := n - gx; gy >= 0; gy-- {
				gz := n - gx - gy
				g := [3]int{gx, gy, gz}
				s.pos[g] = len(s.Idx)
				s.Idx = append(s.Idx, g)
			}
		}
	}
	m := 2*p + 3
	s.Factorial = make([]float64, m)
	s.Factorial[0] = 1
	for i := 1; i < m; i++ {
		s.Factorial[i] = s.Factorial[i-1] * float64(i)
	}
	s.Binomial = make([][]float64, m)
	for n := 0; n < m; n++ {
		s.Binomial[n] = make([]float64, m)
		s.Binomial[n][0] = 1
		for k := 1; k <= n; k++ {
			s.Binomial[n][k] = s.Binomial[n-1][k-1]
			if k < n {
				s.Binomial[n][k] += s.Binomial[n-1][k]
			}
		}
	}
	return s, nil
}

// Len returns the number of coefficients (multi-indices up to degree P).
func (s *MultiIndexSet) Len() int { return len(s.Idx) }

// Pos returns the flat position of multi-index g, or -1 if |g| > P.
func (s *MultiIndexSet) Pos(gx, gy, gz int) int {
	if p, ok := s.pos[[3]int{gx, gy, gz}]; ok {
		return p
	}
	return -1
}

// MultiBinomial returns Π_d C(a_d, b_d), the multi-index binomial
// coefficient C(a, b).
func (s *MultiIndexSet) MultiBinomial(a, b [3]int) float64 {
	return s.Binomial[a[0]][b[0]] * s.Binomial[a[1]][b[1]] * s.Binomial[a[2]][b[2]]
}

// Power returns v^γ = vx^gx * vy^gy * vz^gz.
func Power(vx, vy, vz float64, g [3]int) float64 {
	out := 1.0
	for i := 0; i < g[0]; i++ {
		out *= vx
	}
	for i := 0; i < g[1]; i++ {
		out *= vy
	}
	for i := 0; i < g[2]; i++ {
		out *= vz
	}
	return out
}
