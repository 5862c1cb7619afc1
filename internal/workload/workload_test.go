package workload

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"lam/internal/analytical"
	"lam/internal/lamerr"
	"lam/internal/machine"
)

func bw() *machine.Machine { return machine.BlueWatersXE6() }

func am(t *testing.T, name string) *AM {
	t.Helper()
	w, err := Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	return w.AM(bw())
}

// adapterMapping is the per-workload mapping from feature vector to
// model parameters that the catalogue's layouts replaced, written out
// one workload at a time as the spec the layouts must reproduce.
func adapterMapping(name string, m *machine.Machine, x []float64) (float64, error) {
	st := &analytical.StencilModel{Machine: m, WriteAllocate: true}
	switch name {
	case "stencil-grid":
		return st.Predict(analytical.StencilParams{I: int(x[0]), J: int(x[1]), K: int(x[2])})
	case "stencil-blocking", "stencil-full":
		return st.Predict(analytical.StencilParams{
			I: int(x[0]), J: int(x[1]), K: int(x[2]),
			TI: int(x[3]), TJ: int(x[4]), TK: int(x[5]),
		})
	case "stencil-threads":
		return st.Predict(analytical.StencilParams{I: int(x[0]), J: int(x[1]), K: int(x[2]), TimeSteps: 50})
	case "fmm":
		fm := &analytical.FMMModel{Machine: m}
		return fm.Predict(analytical.FMMParams{N: int(x[1]), Q: int(x[2]), K: int(x[3])})
	}
	return 0, fmt.Errorf("no adapter for %q", name)
}

// TestCatalogueMatchesAdapterMapping: on every row of every canonical
// dataset and every machine preset, the catalogue's analytical model
// returns exactly — math.Float64bits — what the explicit mapping does.
func TestCatalogueMatchesAdapterMapping(t *testing.T) {
	for _, name := range Names() {
		w, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		ds, err := w.Dataset(bw(), 1)
		if err != nil {
			t.Fatal(err)
		}
		for preset, m := range machine.Presets() {
			a := w.AM(m)
			for i, x := range ds.X {
				want, wantErr := adapterMapping(name, m, x)
				got, err := a.Predict(x)
				if (err == nil) != (wantErr == nil) || math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s on %s row %d %v: catalogue %v (%v), mapping %v (%v)", name, preset, i, x, got, err, want, wantErr)
				}
			}
		}
	}
}

// TestLayoutsAreWellFormed: every layout's arity is its dataset's, no
// parameter is fed by two columns, and each model gets the parameters
// it cannot default.
func TestLayoutsAreWellFormed(t *testing.T) {
	for _, name := range Names() {
		w, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		ds, err := w.Dataset(bw(), 1)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(w.Layout.Columns); got != ds.NumFeatures() {
			t.Errorf("%s: layout has %d columns, dataset %d", name, got, ds.NumFeatures())
		}
		seen := map[Param]bool{}
		for _, p := range w.Layout.Columns {
			if p != Ignored && seen[p] {
				t.Errorf("%s: parameter %d fed by two columns", name, p)
			}
			seen[p] = true
		}
		need := []Param{I, J, K}
		if w.fmm != nil {
			need = []Param{N, Q, Order}
		}
		for _, p := range need {
			if !seen[p] {
				t.Errorf("%s: no column feeds parameter %d", name, p)
			}
		}
	}
}

func TestLookupUnknown(t *testing.T) {
	if _, err := Lookup("zzz"); !errors.Is(err, lamerr.ErrUnknownWorkload) {
		t.Fatalf("Lookup(zzz) = %v, want ErrUnknownWorkload", err)
	}
}

// TestAMAllocationFree: scoring a row allocates nothing, for every
// catalogue model.
func TestAMAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	rows := map[string][]float64{
		"stencil-grid":     {128, 144, 160},
		"stencil-blocking": {1, 64, 48, 1, 16, 8},
		"stencil-threads":  {128, 132, 1, 4},
		"stencil-full":     {64, 64, 64, 8, 16, 64, 2, 4},
		"fmm":              {4, 8192, 64, 6},
	}
	for _, name := range Names() {
		a, x := am(t, name), rows[name]
		if allocs := testing.AllocsPerRun(100, func() {
			if _, err := a.Predict(x); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("%s: Predict allocates %.1f per row, want 0", name, allocs)
		}
	}
}

func TestAMAdaptersCheckArity(t *testing.T) {
	for _, name := range Names() {
		if _, err := am(t, name).Predict([]float64{1}); err == nil {
			t.Error("expected arity error from adapter")
		}
	}
}

func TestThreadsAMIgnoresThreadCount(t *testing.T) {
	a := am(t, "stencil-threads")
	x, err := a.Predict([]float64{128, 128, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	y, err := a.Predict([]float64{128, 128, 1, 8})
	if err != nil {
		t.Fatal(err)
	}
	if x != y {
		t.Errorf("serial AM must ignore t: got %v vs %v", x, y)
	}
}

func TestFMMAMIgnoresThreadCount(t *testing.T) {
	a := am(t, "fmm")
	x, _ := a.Predict([]float64{1, 8192, 64, 6})
	y, _ := a.Predict([]float64{16, 8192, 64, 6})
	if x != y {
		t.Errorf("single-core FMM AM must ignore t: %v vs %v", x, y)
	}
}

func TestStencilFullAMIgnoresUncoveredFeatures(t *testing.T) {
	a := am(t, "stencil-full")
	x, err := a.Predict([]float64{64, 64, 64, 8, 16, 16, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	y, err := a.Predict([]float64{64, 64, 64, 8, 16, 16, 8, 8})
	if err != nil {
		t.Fatal(err)
	}
	if x != y {
		t.Errorf("AM must ignore (u, t): %v vs %v", x, y)
	}
	if _, err := a.Predict([]float64{1, 2}); err == nil {
		t.Error("expected arity error")
	}
}
