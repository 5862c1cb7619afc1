package analytical

import (
	"fmt"
	"math"
	"testing"

	"lam/internal/machine"
	"lam/internal/xmath"
)

// refMisses is the slice-based miss model the array-based one replaced,
// kept verbatim as the executable spec: it allocates its result and
// normalises the params itself.
func refMisses(m *StencilModel, p StencilParams) ([]float64, error) {
	if m.Machine == nil {
		return nil, fmt.Errorf("analytical: StencilModel requires a Machine")
	}
	pp, err := p.normalized()
	if err != nil {
		return nil, err
	}
	l := m.Order
	if l <= 0 {
		l = 1
	}
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
	misses := make([]float64, len(mach.Levels))
	for i, lvl := range mach.Levels {
		np := nplanes(float64(lvl.SizeElems()), pread, stotal, sread, float64(bii), rcol)
		misses[i] = basePlanes * np
	}
	for i := 1; i < len(misses); i++ {
		if misses[i] > misses[i-1] {
			misses[i] = misses[i-1]
		}
	}
	return misses, nil
}

// refPredict is the Predict that called refMisses and then normalised
// the params a second time, kept verbatim as the executable spec.
func refPredict(m *StencilModel, p StencilParams) (float64, error) {
	misses, err := refMisses(m, p)
	if err != nil {
		return 0, err
	}
	pp, err := p.normalized()
	if err != nil {
		return 0, err
	}
	l := m.Order
	if l <= 0 {
		l = 1
	}

	mach := m.Machine
	w := mach.Levels[0].LineElems()

	bi := xmath.CeilDiv(pp.TI, w) * w
	bj := pp.TJ
	bkk := pp.TK + 2*l
	nb := float64(xmath.CeilDiv(pp.I, pp.TI)) *
		float64(xmath.CeilDiv(pp.J, pp.TJ)) *
		float64(xmath.CeilDiv(pp.K, pp.TK))
	n := float64(pp.I) * float64(pp.J) * float64(pp.K)

	refs := m.refsPerPoint(l) * n
	t := (refs - float64(w)*misses[0]) * mach.Levels[0].BetaSecPerElem()
	if t < 0 {
		t = 0
	}
	for i := 1; i < len(mach.Levels); i++ {
		hits := misses[i-1] - misses[i]
		if hits < 0 {
			hits = 0
		}
		t += hits * float64(w) * mach.Levels[i].BetaSecPerElem()
	}
	t += misses[len(misses)-1] * float64(w) * mach.MemBetaSecPerElem()
	if m.WriteAllocate {
		t += float64(xmath.CeilDiv(bi, w)) * float64(bj) * float64(bkk) * nb *
			float64(w) * mach.MemBetaSecPerElem()
	}

	tflops := stencilFlopsPerPoint * n * mach.TimePerFlop()
	total := t
	if tflops > total {
		total = tflops
	}
	return total * float64(pp.TimeSteps), nil
}

// TestStencilMatchesSliceReference pins the array-based Misses and
// Predict to the slice-based spec bit for bit, over a grid sweep that
// includes blocks wider than the grid and unset (0) blocks, both stencil
// orders, both write policies and every machine preset.
func TestStencilMatchesSliceReference(t *testing.T) {
	dims := []int{1, 3, 16, 17, 64, 100, 256}
	blocks := []int{0, 1, 5, 16, 64, 300}
	n := 0
	for name, mach := range machine.Presets() {
		for _, order := range []int{1, 2} {
			for _, wa := range []bool{false, true} {
				m := &StencilModel{Machine: mach, Order: order, WriteAllocate: wa}
				for _, i := range dims {
					for _, j := range dims {
						for _, tb := range blocks {
							p := StencilParams{I: i, J: j, K: (i + j) / 2, TI: tb, TJ: blocks[(tb+j)%len(blocks)], TK: tb / 2, TimeSteps: j % 3}
							what := fmt.Sprintf("%s order=%d wa=%v %+v", name, order, wa, p)
							wantMiss, wantErr := refMisses(m, p)
							gotMiss, err := m.Misses(p)
							if (err == nil) != (wantErr == nil) {
								t.Fatalf("%s: Misses error %v, reference %v", what, err, wantErr)
							}
							if len(gotMiss) != len(wantMiss) {
								t.Fatalf("%s: %d levels, reference %d", what, len(gotMiss), len(wantMiss))
							}
							for lv := range wantMiss {
								if math.Float64bits(gotMiss[lv]) != math.Float64bits(wantMiss[lv]) {
									t.Fatalf("%s: level %d misses %v, reference %v", what, lv, gotMiss[lv], wantMiss[lv])
								}
							}
							want, wantErr := refPredict(m, p)
							got, err := m.Predict(p)
							if (err == nil) != (wantErr == nil) || math.Float64bits(got) != math.Float64bits(want) {
								t.Fatalf("%s: Predict %v (%v), reference %v (%v)", what, got, err, want, wantErr)
							}
							n++
						}
					}
				}
			}
		}
	}
	if n < 1000 {
		t.Fatalf("swept only %d points", n)
	}
}

// unindexable returns machines no model can score on: one with no
// cache level and one with more than machine.MaxLevels.
func unindexable() []*machine.Machine {
	none := machine.BlueWatersXE6()
	none.Levels = nil
	tooMany := machine.BlueWatersXE6()
	for len(tooMany.Levels) <= machine.MaxLevels {
		tooMany.Levels = append(tooMany.Levels, tooMany.Levels[len(tooMany.Levels)-1])
	}
	return []*machine.Machine{none, tooMany}
}

// TestStencilRefusesUnindexableMachines: such a machine is an error from
// Predict and Misses, not an index panic or a truncated hierarchy.
func TestStencilRefusesUnindexableMachines(t *testing.T) {
	for _, mach := range unindexable() {
		m := &StencilModel{Machine: mach}
		if _, err := m.Predict(StencilParams{I: 8, J: 8, K: 8}); err == nil {
			t.Errorf("Predict on %d levels: no error", len(mach.Levels))
		}
		if _, err := m.Misses(StencilParams{I: 8, J: 8, K: 8}); err == nil {
			t.Errorf("Misses on %d levels: no error", len(mach.Levels))
		}
	}
}

// TestFMMRefusesUnindexableMachines: likewise for the FMM model, which
// reads the last cache level.
func TestFMMRefusesUnindexableMachines(t *testing.T) {
	for _, mach := range unindexable() {
		m := &FMMModel{Machine: mach}
		if _, err := m.Predict(FMMParams{N: 4096, Q: 64, K: 4}); err == nil {
			t.Errorf("Predict on %d levels: no error", len(mach.Levels))
		}
	}
}
