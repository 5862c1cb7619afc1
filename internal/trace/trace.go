// Package trace generates synthetic memory-address traces for the
// stencil traversal patterns the paper models. Feeding these traces to
// internal/cachesim reproduces, in software, the cache-miss counts the
// paper's closed-form model (Section IV.A) approximates — which lets the
// test suite quantify how good that approximation is.
package trace

import "fmt"

// Access is one memory reference of a trace.
type Access struct {
	// Addr is the byte address referenced.
	Addr uint64
	// Write marks a store (the stencil's single output write).
	Write bool
}

// StencilConfig describes one 7-point stencil traversal. Dimensions are
// interior sizes; a ghost layer of width Order surrounds the domain.
type StencilConfig struct {
	// I, J, K are the interior grid dimensions (I fastest-varying).
	I, J, K int
	// Order is the stencil radius l (1 for the 7-point stencil).
	Order int
	// BI, BJ, BK are spatial block sizes; 0 disables blocking in that
	// dimension (block = full extent).
	BI, BJ, BK int
	// TimeSteps is the number of sweeps; 0 means 1.
	TimeSteps int
}

func (c StencilConfig) normalized() (StencilConfig, error) {
	if c.I <= 0 || c.J <= 0 || c.K <= 0 {
		return c, fmt.Errorf("trace: non-positive grid %dx%dx%d", c.I, c.J, c.K)
	}
	if c.Order <= 0 {
		c.Order = 1
	}
	if c.BI <= 0 || c.BI > c.I {
		c.BI = c.I
	}
	if c.BJ <= 0 || c.BJ > c.J {
		c.BJ = c.J
	}
	if c.BK <= 0 || c.BK > c.K {
		c.BK = c.K
	}
	if c.TimeSteps <= 0 {
		c.TimeSteps = 1
	}
	return c, nil
}

// Stencil replays the access stream of a blocked 7-point Jacobi sweep
// over two arrays (read grid and write grid), invoking visit for every
// reference in program order. Returns the number of accesses generated.
//
// The memory layout matches internal/stencil: row-major with I fastest,
// ghost layer of width Order on each side, arrays placed back to back.
func Stencil(cfg StencilConfig, visit func(Access)) (uint64, error) {
	c, err := cfg.normalized()
	if err != nil {
		return 0, err
	}
	l := c.Order
	ii := uint64(c.I + 2*l)
	jj := uint64(c.J + 2*l)
	kk := uint64(c.K + 2*l)
	gridBytes := ii * jj * kk * 8
	var count uint64

	idx := func(i, j, k int) uint64 {
		return ((uint64(k)*jj+uint64(j))*ii + uint64(i)) * 8
	}
	emit := func(a Access) {
		visit(a)
		count++
	}

	for ts := 0; ts < c.TimeSteps; ts++ {
		// Alternate read/write arrays each sweep (Jacobi ping-pong).
		readBase := uint64(0)
		writeBase := gridBytes
		if ts%2 == 1 {
			readBase, writeBase = writeBase, readBase
		}
		for k0 := l; k0 < c.K+l; k0 += c.BK {
			for j0 := l; j0 < c.J+l; j0 += c.BJ {
				for i0 := l; i0 < c.I+l; i0 += c.BI {
					kEnd := min(k0+c.BK, c.K+l)
					jEnd := min(j0+c.BJ, c.J+l)
					iEnd := min(i0+c.BI, c.I+l)
					for k := k0; k < kEnd; k++ {
						for j := j0; j < jEnd; j++ {
							for i := i0; i < iEnd; i++ {
								emit(Access{Addr: readBase + idx(i, j, k)})
								emit(Access{Addr: readBase + idx(i-1, j, k)})
								emit(Access{Addr: readBase + idx(i+1, j, k)})
								emit(Access{Addr: readBase + idx(i, j-1, k)})
								emit(Access{Addr: readBase + idx(i, j+1, k)})
								emit(Access{Addr: readBase + idx(i, j, k-1)})
								emit(Access{Addr: readBase + idx(i, j, k+1)})
								emit(Access{Addr: writeBase + idx(i, j, k), Write: true})
							}
						}
					}
				}
			}
		}
	}
	return count, nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
