// Package lam ("Learning with Analytical Models") is the public facade
// of this reproduction of Ibeid, Meng, Dobon, Olson & Gropp, "Learning
// with Analytical Models" (IPDPSW 2019, arXiv:1810.11772): a hybrid
// performance-prediction framework that stacks a machine-learning
// regressor on top of a closed-form analytical model so that accurate
// predictions need only a small training dataset.
//
// The facade wires together the building blocks in internal/…:
//
//   - machine descriptions (Blue Waters XE6 and friends),
//   - ground-truth performance simulators for the paper's two
//     applications (7-point 3-D stencil, FMM),
//   - the paper's analytical models,
//   - a from-scratch ML suite (trees, random forests, extra trees and
//     the standardising pipeline the paper's figures use),
//   - the hybrid model itself, and
//   - the experiment harness that regenerates every figure.
//
// See examples/ for runnable walk-throughs and cmd/lam-bench for the
// figure regeneration tool.
//
// Every long-running operation has one context-first entry point, in
// v2.go — TrainHybridCtx, FitCtx, PredictBatchIntoCtx (and the
// Predictor interface's PredictBatch), AnalyticalMAPECtx, FigureCtx,
// FiguresCtx, NoiseSensitivityCtx, HardwareTransferCtx — beside the
// typed sentinel errors (ErrCancelled, ErrNotFitted, …) and the
// versioned model Registry behind the cmd/lam-serve HTTP service. This
// file holds the types and the cheap constructors.
package lam

import (
	"fmt"
	"sort"

	"lam/internal/dataset"
	"lam/internal/experiments"
	"lam/internal/hybrid"
	"lam/internal/machine"
	"lam/internal/ml"
	"lam/internal/workload"
)

// Dataset is the tabular sample container: named features + response
// (execution time in seconds).
type Dataset = dataset.Dataset

// Machine describes the simulated hardware platform.
type Machine = machine.Machine

// AnalyticalModel scores a feature vector with a closed-form model.
type AnalyticalModel = hybrid.AnalyticalModel

// AnalyticalFunc adapts a function to AnalyticalModel.
type AnalyticalFunc = hybrid.AnalyticalFunc

// HybridModel is a trained analytical+ML hybrid predictor.
type HybridModel = hybrid.Model

// HybridConfig tunes hybrid training; the zero value is the paper's
// setup (stacking, extra trees, no aggregation).
type HybridConfig = hybrid.Config

// Regressor is the common ML estimator interface.
type Regressor = ml.Regressor

// Report is one regenerated figure.
type Report = experiments.Report

// FigureOptions configures figure regeneration.
type FigureOptions = experiments.Options

// NewDataset returns an empty dataset with the given feature names.
func NewDataset(featureNames ...string) *Dataset {
	return dataset.New(featureNames...)
}

// Machines lists the built-in machine presets by name. "bluewaters" is
// the paper's platform.
func Machines() []string {
	ms := machine.Presets()
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// MachineByName returns a built-in machine preset; unknown names wrap
// ErrUnknownMachine.
func MachineByName(name string) (*Machine, error) {
	if m, ok := machine.Presets()[name]; ok {
		return m, nil
	}
	return nil, fmt.Errorf("lam: %w: %q (have %v)", ErrUnknownMachine, name, Machines())
}

// BlueWaters returns the paper's experimental platform.
func BlueWaters() *Machine { return machine.BlueWatersXE6() }

// Workloads lists the canonical datasets: "stencil-grid" (Fig. 5),
// "stencil-blocking" (Figs. 3A/6), "stencil-threads" (Fig. 7), "fmm"
// (Figs. 3B/8) and "stencil-full" (the complete 8-feature PATUS vector
// of Section III.B, an extension workload).
func Workloads() []string { return workload.Names() }

// BuildDataset generates one of the canonical datasets on a machine,
// with a deterministic measurement-noise seed.
func BuildDataset(workload string, m *Machine, seed uint64) (*Dataset, error) {
	return experiments.DatasetByName(workload, m, seed)
}

// AnalyticalModelFor returns the paper's (untuned) analytical model
// matched to a canonical dataset's feature layout.
func AnalyticalModelFor(workload string, m *Machine) (AnalyticalModel, error) {
	return experiments.AMByDataset(workload, m)
}

// NewExtraTrees returns the paper's best pure-ML estimator: a
// standardising pipeline feeding an extra-trees ensemble.
func NewExtraTrees(nTrees int, seed int64) Regressor {
	return &ml.Pipeline{Model: ml.NewExtraTrees(nTrees, seed)}
}

// NewRandomForest returns a standardising random-forest pipeline.
func NewRandomForest(nTrees int, seed int64) Regressor {
	return &ml.Pipeline{Model: ml.NewRandomForest(nTrees, seed)}
}

// NewDecisionTree returns a standardising single-CART pipeline.
func NewDecisionTree(seed int64) Regressor {
	return &ml.Pipeline{Model: ml.NewDecisionTree(ml.TreeConfig{Seed: seed})}
}

// MAPE returns the mean absolute percentage error (percent), the
// paper's headline metric.
func MAPE(yTrue, yPred []float64) float64 { return ml.MAPE(yTrue, yPred) }

// FigureIDs lists the reproducible figures in paper order.
func FigureIDs() []string { return experiments.AllFigureIDs() }
