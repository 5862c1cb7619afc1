// Package workload is the catalogue of the paper's canonical workloads.
// For each one it owns the dataset builder, the feature layout the
// analytical model reads — as data: which column is which model
// parameter and which columns the model ignores — and the analytical
// model built from that layout.
//
// The figure harness, the registry (which rebuilds a stored hybrid's
// analytical model from its metadata) and the online plane (which
// rebuilds a model's base training set) all read this one table. The
// package imports neither internal/hybrid nor internal/experiments, so
// serving links it without the research code and hybrid's own tests
// can score real analytical models.
package workload

import (
	"fmt"

	"lam/internal/analytical"
	"lam/internal/dataset"
	"lam/internal/lamerr"
	"lam/internal/machine"
	"lam/internal/perfsim"
)

// Param is the analytical-model parameter a feature column feeds.
type Param uint8

// The parameters a column can feed. Ignored marks a column outside the
// model's coverage (a thread count, an unroll factor): the model never
// reads it.
const (
	Ignored Param = iota
	// I, J, K are the stencil's interior grid dimensions.
	I
	J
	K
	// TI, TJ, TK are the stencil's spatial block sizes.
	TI
	TJ
	TK
	// N is the FMM particle count.
	N
	// Q is the FMM leaf capacity.
	Q
	// Order is the FMM expansion order k.
	Order
	numParams
)

// Layout maps a workload's feature columns onto its analytical model.
type Layout struct {
	// Columns names the parameter each feature column feeds, in column
	// order; its length is the workload's arity. A parameter no column
	// feeds is 0, the model's default.
	Columns []Param
	// TimeSteps is the fixed sweep count the stencil model scores; 0
	// means 1.
	TimeSteps int
}

// Workload is one canonical workload: its name, its feature layout and
// the builders of its dataset and analytical model. Exactly one of
// stencil and fmm is set; it also selects the analytical model.
type Workload struct {
	// Name is the canonical name ("stencil-grid", …, "fmm").
	Name string
	// Layout is the feature layout the analytical model reads.
	Layout Layout
	// label names the model in arity errors.
	label   string
	stencil func(*perfsim.StencilSim) (*dataset.Dataset, error)
	fmm     func(*perfsim.FMMSim) (*dataset.Dataset, error)
}

// threadsTimeSteps is the sweep count of the stencil-threads workload (a
// timed multi-sweep run, as stencil benchmarking campaigns use): its
// simulator measures it and its analytical model scores it.
const threadsTimeSteps = 50

// catalogue is the table, in the order Names lists it.
var catalogue = []Workload{
	{
		// Fig. 5: X = (I, J, K), the region the model covers accurately.
		Name: "stencil-grid", label: "grid", stencil: stencilGridDataset,
		Layout: Layout{Columns: []Param{I, J, K}},
	},
	{
		// Figs. 3A and 6: X = (I, J, K, bi, bj, bk) with the Eq. 15
		// blocking extension. Untuned, as in the paper (AM MAPE = 42%).
		Name: "stencil-blocking", label: "blocking", stencil: StencilBlockingDataset,
		Layout: Layout{Columns: []Param{I, J, K, TI, TJ, TK}},
	},
	{
		// Fig. 7: X = (I, J, K, t) scored by the *serial* model, which
		// ignores the thread count — the paper's "region not covered by
		// the analytical models" experiment.
		Name: "stencil-threads", label: "threads", stencil: stencilThreadsDataset,
		Layout: Layout{Columns: []Param{I, J, K, Ignored}, TimeSteps: threadsTimeSteps},
	},
	{
		// The complete PATUS vector X = (I, J, K, bi, bj, bk, u, t) of
		// Section III.B: unroll and threads are outside the model's
		// coverage, the paper's worst-case stacking scenario.
		Name: "stencil-full", label: "full", stencil: stencilFullDataset,
		Layout: Layout{Columns: []Param{I, J, K, TI, TJ, TK, Ignored, Ignored}},
	},
	{
		// Figs. 3B and 8: X = (t, N, q, k); the single-core model ignores
		// t. Untuned, as in the paper (AM MAPE = 84.5%).
		Name: "fmm", label: "FMM", fmm: fmmDataset,
		Layout: Layout{Columns: []Param{Ignored, N, Q, Order}},
	},
}

// Names lists the canonical workloads.
func Names() []string {
	names := make([]string, len(catalogue))
	for i := range catalogue {
		names[i] = catalogue[i].Name
	}
	return names
}

// Lookup returns the named canonical workload; an unknown name wraps
// lamerr.ErrUnknownWorkload.
func Lookup(name string) (*Workload, error) {
	for i := range catalogue {
		if catalogue[i].Name == name {
			return &catalogue[i], nil
		}
	}
	return nil, fmt.Errorf("workload: %w: %q (have %v)", lamerr.ErrUnknownWorkload, name, Names())
}

// Dataset builds w's dataset from its ground-truth simulator on m; seed
// fixes the simulator's noise stream.
func (w *Workload) Dataset(m *machine.Machine, seed uint64) (*dataset.Dataset, error) {
	if w.fmm != nil {
		return w.fmm(&perfsim.FMMSim{Machine: m, Seed: seed})
	}
	return w.stencil(&perfsim.StencilSim{Machine: m, Seed: seed})
}

// AM returns w's analytical model on m: the paper's untuned closed-form
// model read through w's layout.
func (w *Workload) AM(m *machine.Machine) *AM {
	a := &AM{label: w.label, arity: len(w.Layout.Columns), timeSteps: w.Layout.TimeSteps, isFMM: w.fmm != nil}
	for p := range a.col {
		a.col[p] = -1
	}
	for c, p := range w.Layout.Columns {
		if p != Ignored {
			a.col[p] = c
		}
	}
	if a.isFMM {
		a.fmm = analytical.FMMModel{Machine: m}
	} else {
		a.stencil = analytical.StencilModel{Machine: m, WriteAllocate: true}
	}
	return a
}

// AM is a workload's analytical model. Predict allocates nothing and,
// like the models in internal/analytical, is safe for concurrent use.
type AM struct {
	label     string
	arity     int
	col       [numParams]int // feature column of each parameter, -1 for none
	timeSteps int
	isFMM     bool
	stencil   analytical.StencilModel
	fmm       analytical.FMMModel
}

// Predict scores one raw feature vector of the workload's arity.
func (a *AM) Predict(x []float64) (float64, error) {
	if len(x) != a.arity {
		return 0, fmt.Errorf("workload: %s AM wants %d features, got %d", a.label, a.arity, len(x))
	}
	if a.isFMM {
		return a.fmm.Predict(analytical.FMMParams{N: a.param(x, N), Q: a.param(x, Q), K: a.param(x, Order)})
	}
	return a.stencil.Predict(analytical.StencilParams{
		I: a.param(x, I), J: a.param(x, J), K: a.param(x, K),
		TI: a.param(x, TI), TJ: a.param(x, TJ), TK: a.param(x, TK),
		TimeSteps: a.timeSteps,
	})
}

// param reads parameter p from x, truncated to an integer; 0 when no
// column feeds it.
func (a *AM) param(x []float64, p Param) int {
	if c := a.col[p]; c >= 0 {
		return int(x[c])
	}
	return 0
}
