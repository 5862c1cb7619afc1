package analytical

import (
	"fmt"
	"math"

	"lam/internal/machine"
)

// FMMParams is the workload configuration the FMM model scores — the
// paper's X = (t, N, q, k) minus t, because the analytical models are
// single-core (Section VII.B couples them with ML precisely to cover
// parallelism).
type FMMParams struct {
	// N is the number of particles.
	N int
	// Q is the number of particles per leaf cell.
	Q int
	// K is the expansion order.
	K int
}

// Validate checks the parameters.
func (p FMMParams) Validate() error {
	if p.N <= 0 {
		return fmt.Errorf("analytical: non-positive N %d", p.N)
	}
	if p.Q <= 0 {
		return fmt.Errorf("analytical: non-positive q %d", p.Q)
	}
	if p.K < 1 {
		return fmt.Errorf("analytical: order k %d < 1", p.K)
	}
	return nil
}

// FMMModel is the paper's single-core FMM cost model for the two
// dominant phases, P2P and M2L (Section IV.B). It is untuned, as in the
// paper (FMM analytical model MAPE = 84.5%).
type FMMModel struct {
	// Machine supplies tc, βmem and the cache size Z. Required.
	Machine *machine.Machine
}

// bP2P is the average number of source cells in the neighbour list of
// an interior target leaf (paper: 26 neighbours + self = 27 in Eq. 8).
const bP2P = 27

// m2lOpsPerCell is the Cartesian-expansion M2L operation count factor
// (paper: 189·k⁶ for the 189-cell well-separated list, Eq. 9).
const m2lOpsPerCell = 189

// Predict returns the modelled single-core execution time in seconds:
// max(Tflop, Tmem) per phase, summed over P2P and M2L (Eq. 2 applied
// per phase).
func (m *FMMModel) Predict(p FMMParams) (float64, error) {
	if err := checkMachine(m.Machine, "FMMModel"); err != nil {
		return 0, err
	}
	if err := p.Validate(); err != nil {
		return 0, err
	}
	tc := m.Machine.TimePerFlop()
	beta := m.Machine.MemBetaSecPerElem()
	last := m.Machine.Levels[len(m.Machine.Levels)-1]
	z := float64(last.SizeElems())      // Z, cache size in elements
	lElems := float64(last.LineElems()) // L, cache-line length in elements

	n := float64(p.N)
	q := float64(p.Q)
	k := float64(p.K)
	k6 := k * k * k * k * k * k

	// Eq. 8: Tflop,P2P = 27·q·N·tc.
	tFlopP2P := bP2P * q * n * tc
	// Eq. 12: Tmem,P2P = N·βmem + N·L/(Z^{1/3}·q^{2/3})·βmem.
	tMemP2P := n*beta + n*lElems/(math.Cbrt(z)*math.Pow(q, 2.0/3.0))*beta

	// Eq. 9: Tflop,M2L = 189·N·k⁶/q·tc.
	tFlopM2L := m2lOpsPerCell * n * k6 / q * tc
	// Eq. 14: Tmem,M2L = (N·k⁶/q)·βmem·(L/L) + (N·k²·L)/(q·Z^{1/3})·βmem.
	tMemM2L := n*k6/q*beta + n*k*k*lElems/(q*math.Cbrt(z))*beta

	total := math.Max(tFlopP2P, tMemP2P) + math.Max(tFlopM2L, tMemM2L)
	return total, nil
}

// OptimalQ returns the leaf capacity that minimises the modelled time
// for fixed N and k, scanned over a sensible range. It exposes the
// model's headline use: balancing P2P (∝q) against M2L (∝1/q).
func (m *FMMModel) OptimalQ(n, k, qMin, qMax int) (int, float64, error) {
	if qMin < 1 {
		qMin = 1
	}
	if qMax < qMin {
		return 0, 0, fmt.Errorf("analytical: empty q range [%d, %d]", qMin, qMax)
	}
	bestQ, bestT := 0, math.Inf(1)
	for q := qMin; q <= qMax; q++ {
		t, err := m.Predict(FMMParams{N: n, Q: q, K: k})
		if err != nil {
			return 0, 0, err
		}
		if t < bestT {
			bestQ, bestT = q, t
		}
	}
	return bestQ, bestT, nil
}
