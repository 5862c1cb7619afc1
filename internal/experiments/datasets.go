// Package experiments regenerates every figure of the paper's
// evaluation (Figs. 3, 5, 6, 7, 8): it takes the per-figure datasets
// and analytical models from the workload catalogue
// (internal/workload), sweeps training-set fractions with repeated
// resampling, and renders the resulting MAPE-vs-training-size series.
package experiments

import (
	"lam/internal/dataset"
	"lam/internal/hybrid"
	"lam/internal/machine"
	"lam/internal/workload"
)

// DatasetByName builds one of the canonical datasets (workload.Names).
func DatasetByName(name string, m *machine.Machine, seed uint64) (*dataset.Dataset, error) {
	w, err := workload.Lookup(name)
	if err != nil {
		return nil, err
	}
	return w.Dataset(m, seed)
}

// AMByDataset returns the analytical model matching a canonical
// dataset's feature layout (see DatasetByName).
func AMByDataset(name string, m *machine.Machine) (hybrid.AnalyticalModel, error) {
	w, err := workload.Lookup(name)
	if err != nil {
		return nil, err
	}
	return w.AM(m), nil
}

// canonical builds a canonical workload's dataset on o's machine with
// o's seed, and its analytical model.
func canonical(name string, o Options) (*dataset.Dataset, hybrid.AnalyticalModel, error) {
	w, err := workload.Lookup(name)
	if err != nil {
		return nil, nil, err
	}
	ds, err := w.Dataset(o.Machine, uint64(o.Seed))
	if err != nil {
		return nil, nil, err
	}
	return ds, w.AM(o.Machine), nil
}
