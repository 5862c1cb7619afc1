// Package analytical implements the paper's closed-form performance
// models (Section IV): the multi-level cache model for the 7-point 3-D
// stencil (after de la Cruz & Araya-Polo, Eqs. 3–7 and the blocked
// variant Eq. 15) and the FMM P2P/M2L flop and memory-cost models
// (Eqs. 8, 9, 12, 14).
//
// Deliberately, these models are used *untuned* in the hybrid
// experiments, exactly as in the paper ("we do not tune the analytical
// models", Sections VII.A and VII.B): the point of the hybrid method is
// that a rough analytical sketch already helps the ML model.
package analytical

import (
	"fmt"

	"lam/internal/machine"
	"lam/internal/xmath"
)

// StencilParams is the workload configuration the stencil model scores.
type StencilParams struct {
	// I, J, K are interior grid dimensions (I fastest varying).
	I, J, K int
	// TI, TJ, TK are spatial block sizes; 0 disables blocking in that
	// dimension.
	TI, TJ, TK int
	// TimeSteps is the sweep count; 0 means 1.
	TimeSteps int
}

func (p StencilParams) normalized() (StencilParams, error) {
	if p.I <= 0 || p.J <= 0 || p.K <= 0 {
		return p, fmt.Errorf("analytical: non-positive grid %dx%dx%d", p.I, p.J, p.K)
	}
	if p.TI <= 0 || p.TI > p.I {
		p.TI = p.I
	}
	if p.TJ <= 0 || p.TJ > p.J {
		p.TJ = p.J
	}
	if p.TK <= 0 || p.TK > p.K {
		p.TK = p.K
	}
	if p.TimeSteps <= 0 {
		p.TimeSteps = 1
	}
	return p, nil
}

// StencilModel is the paper's single-core stencil cache model.
type StencilModel struct {
	// Machine supplies cache geometry and bandwidths. Required.
	Machine *machine.Machine
	// Order is the stencil radius l; 0 means 1 (the 7-point stencil).
	Order int
	// WriteAllocate selects Eq. 3 (true) or Eq. 4 (false) for the
	// working-set size. Interlagos L1 is write-through/no-write-allocate
	// but L2/L3 are write-back; the model applies one policy globally,
	// as the paper does.
	WriteAllocate bool
}

// refsPerPoint is the number of explicit array references per stencil
// update used for the L1-hit traffic term: 2l+5 reads + 1 write = 8 for
// the 7-point stencil.
func (m *StencilModel) refsPerPoint(l int) float64 { return float64(2*l + 5 + 1) }

// Misses returns the modelled number of cache-line misses at every
// cache level (inner to outer) for one sweep — Eqs. 6–7 with the
// blocked Eq. 15 and interpolated nplanes. Exposed so the ablation
// bench can compare the closed-form model against the trace-driven
// cache simulator; Predict computes the same numbers without the slice.
func (m *StencilModel) Misses(p StencilParams) ([]float64, error) {
	pp, err := m.check(p)
	if err != nil {
		return nil, err
	}
	misses := m.misses(pp)
	return append([]float64(nil), misses[:len(m.Machine.Levels)]...), nil
}

// check refuses a model whose machine the model cannot score on and
// normalises p: the one validation both Misses and Predict run.
func (m *StencilModel) check(p StencilParams) (StencilParams, error) {
	if err := checkMachine(m.Machine, "StencilModel"); err != nil {
		return p, err
	}
	return p.normalized()
}

// order returns the stencil radius l.
func (m *StencilModel) order() int {
	if m.Order <= 0 {
		return 1
	}
	return m.Order
}

// misses computes the per-level miss counts for normalised params into
// a fixed-size array, so scoring a row allocates nothing; entries past
// the machine's level count stay zero.
func (m *StencilModel) misses(pp StencilParams) (misses [machine.MaxLevels]float64) {
	l := m.order()
	mach := m.Machine
	w := mach.Levels[0].LineElems()
	bii := xmath.CeilDiv(pp.TI+2*l, w) * w
	bi := xmath.CeilDiv(pp.TI, w) * w
	bjj := pp.TJ + 2*l
	bkk := pp.TK + 2*l
	nb := float64(xmath.CeilDiv(pp.I, pp.TI)) *
		float64(xmath.CeilDiv(pp.J, pp.TJ)) *
		float64(xmath.CeilDiv(pp.K, pp.TK))
	pread := float64(2*l + 1)
	sread := float64(bii * bjj)
	stotal := pread * sread
	if m.WriteAllocate {
		stotal += float64(bi * pp.TJ)
	}
	basePlanes := float64(xmath.CeilDiv(bii, w)) * float64(bjj) * float64(bkk) * nb
	rcol := pread / (2*pread - 1)
	for i, lvl := range mach.Levels {
		np := nplanes(float64(lvl.SizeElems()), pread, stotal, sread, float64(bii), rcol)
		misses[i] = basePlanes * np
	}
	for i := 1; i < len(mach.Levels); i++ {
		if misses[i] > misses[i-1] {
			misses[i] = misses[i-1]
		}
	}
	return misses
}

// Predict returns the modelled execution time in seconds for one core.
// It allocates nothing.
func (m *StencilModel) Predict(p StencilParams) (float64, error) {
	pp, err := m.check(p)
	if err != nil {
		return 0, err
	}
	misses := m.misses(pp)
	l := m.order()

	mach := m.Machine
	w := mach.Levels[0].LineElems() // W, elements per cache line
	last := len(mach.Levels) - 1

	bi := xmath.CeilDiv(pp.TI, w) * w
	bj := pp.TJ
	bkk := pp.TK + 2*l
	nb := float64(xmath.CeilDiv(pp.I, pp.TI)) *
		float64(xmath.CeilDiv(pp.J, pp.TJ)) *
		float64(xmath.CeilDiv(pp.K, pp.TK))
	n := float64(pp.I) * float64(pp.J) * float64(pp.K)

	// Eq. 5–6 accounting: L1 hits move elements at the L1 rate; every
	// outer level moves whole lines for the lines the previous level
	// missed but this one holds; main memory serves the last level's
	// misses.
	refs := m.refsPerPoint(l) * n
	t := (refs - float64(w)*misses[0]) * mach.Levels[0].BetaSecPerElem()
	if t < 0 {
		t = 0
	}
	for i := 1; i <= last; i++ {
		hits := misses[i-1] - misses[i]
		if hits < 0 {
			hits = 0
		}
		t += hits * float64(w) * mach.Levels[i].BetaSecPerElem()
	}
	t += misses[last] * float64(w) * mach.MemBetaSecPerElem()
	if m.WriteAllocate {
		// Store stream: one written plane per k iteration per tile.
		t += float64(xmath.CeilDiv(bi, w)) * float64(bj) * float64(bkk) * nb *
			float64(w) * mach.MemBetaSecPerElem()
	}

	// Eq. 2: overlap of flops and memory.
	tflops := stencilFlopsPerPoint * n * mach.TimePerFlop()
	total := t
	if tflops > total {
		total = tflops
	}
	return total * float64(pp.TimeSteps), nil
}

// stencilFlopsPerPoint matches internal/stencil.FlopsPerPoint without
// importing it (the model must stand alone).
const stencilFlopsPerPoint = 9

// checkMachine refuses a missing machine and a cache hierarchy the
// models cannot index: no level, or more than machine.MaxLevels.
func checkMachine(m *machine.Machine, model string) error {
	if m == nil {
		return fmt.Errorf("analytical: %s requires a Machine", model)
	}
	if n := len(m.Levels); n == 0 || n > machine.MaxLevels {
		return fmt.Errorf("analytical: %s needs 1 to %d cache levels, machine %q has %d", model, machine.MaxLevels, m.Name, n)
	}
	return nil
}

// nplanes evaluates the paper's conditional equations for the number of
// II×JJ planes fetched from the next level per k iteration, with linear
// interpolation between the case boundaries (the paper smooths the
// discontinuities the same way).
//
// cap is the level capacity in elements. The breakpoints, in decreasing
// capacity order, are:
//
//	cap ≥ Stotal/Rcol           → 1          (R1)
//	Stotal ≤ cap < Stotal/Rcol  → (1, P−1]   (¬R1 ∧ R2)
//	Sread/Rcol ≤ cap < Stotal   → (P−1, P]   (¬R2 ∧ R3)
//	P·II/Rcol ≤ cap < Sread/Rcol→ (P, 2P−1]  (¬R3 ∧ ¬R4)
//	cap < P·II/Rcol             → 2P−1       (R4)
func nplanes(cap, pread, stotal, sread, ii, rcol float64) float64 {
	b1 := stotal / rcol // above: everything reused
	b2 := stotal
	b3 := sread / rcol
	b4 := pread * ii / rcol
	switch {
	case cap >= b1:
		return 1
	case cap >= b2:
		return xmath.Lerp(pread-1, 1, xmath.InvLerp(b2, b1, cap))
	case cap >= b3:
		return xmath.Lerp(pread, pread-1, xmath.InvLerp(b3, b2, cap))
	case cap >= b4:
		return xmath.Lerp(2*pread-1, pread, xmath.InvLerp(b4, b3, cap))
	default:
		return 2*pread - 1
	}
}
