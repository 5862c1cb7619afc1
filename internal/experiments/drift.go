package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"lam/internal/dataset"
	"lam/internal/hybrid"
	"lam/internal/lamerr"
	"lam/internal/machine"
	"lam/internal/parallel"
)

// Drift injection reuses the hardware-transfer ingredients (see
// HardwareTransferCtx) in streaming form: a model is trained on the
// source machine's data, deployed, and then fed the *target* machine's
// measurements one batch at a time — the production analogue of the
// paper's concluding hardware-change scenario, and the workload the
// online adaptation plane (internal/online) is built to absorb. This
// package only prepares the data; replaying it through an ingest
// window, drift detector and retrainer is internal/online's job (over
// HTTP: lam-serve -online plus cmd/lam-replay).

// DriftScenario bundles the ingredients of one drift-injection run.
type DriftScenario struct {
	// Workload is the canonical dataset name (DatasetByName).
	Workload string
	// SourceName and TargetName are machine preset keys
	// (machine.Presets), as recorded in registry metadata.
	SourceName, TargetName string
	// Train is the source-machine training sample — what the deployed
	// model was fitted on, and the "original training set" the online
	// retrainer merges fresh observations into.
	Train *dataset.Dataset
	// SourceTest is the source-machine complement of Train: the
	// held-out set whose MAPE becomes the registry-recorded baseline
	// the drift detector compares the live window against.
	SourceTest *dataset.Dataset
	// Stream is the full target-machine dataset in shuffled order —
	// the observation stream that injects the drift.
	Stream *dataset.Dataset
	// AM is the source machine's analytical model: the component a
	// registry load rebuilds for the deployed hybrid artifact.
	AM hybrid.AnalyticalModel
}

// DriftScenarioCtx builds the drift-injection data: the source
// machine's dataset split into a training sample (trainFrac, the
// paper's small-budget regime; 0 means 2%) and held-out baseline, plus
// the target machine's full dataset shuffled into an observation
// stream. Source and target are machine preset keys; the same workload
// and seed are used on both machines, so the feature grid is identical
// and only the response distribution shifts — a pure concept drift.
// The context is checked between the two dataset builds (each is a
// full simulator sweep).
func DriftScenarioCtx(ctx context.Context, workload, source, target string, trainFrac float64, seed int64) (*DriftScenario, error) {
	presets := machine.Presets()
	src, ok := presets[source]
	if !ok {
		return nil, fmt.Errorf("experiments: %w: %q", lamerr.ErrUnknownMachine, source)
	}
	tgt, ok := presets[target]
	if !ok {
		return nil, fmt.Errorf("experiments: %w: %q", lamerr.ErrUnknownMachine, target)
	}
	if trainFrac <= 0 {
		trainFrac = 0.02
	}
	if trainFrac > 1 {
		return nil, fmt.Errorf("experiments: drift training fraction %v out of (0,1]", trainFrac)
	}
	srcDS, err := DatasetByName(workload, src, uint64(seed))
	if err != nil {
		return nil, err
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, parallel.Cancelled(err)
		}
	}
	tgtDS, err := DatasetByName(workload, tgt, uint64(seed))
	if err != nil {
		return nil, err
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, parallel.Cancelled(err)
		}
	}
	am, err := AMByDataset(workload, src)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	train, test, err := srcDS.SampleFraction(trainFrac, rng)
	if err != nil {
		return nil, err
	}
	return &DriftScenario{
		Workload:   workload,
		SourceName: source,
		TargetName: target,
		Train:      train,
		SourceTest: test,
		Stream:     tgtDS.Subset(rng.Perm(tgtDS.Len())),
		AM:         am,
	}, nil
}
