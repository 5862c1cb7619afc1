package experiments

import (
	"context"
	"errors"
	"testing"

	"lam/internal/lamerr"
	"lam/internal/ml"
)

// TestDriftScenarioShapes checks the drift-injection ingredients line
// up: identical feature grids on both machines, a small source
// training sample with its complement, a full-length shuffled target
// stream, and a genuinely shifted response distribution.
func TestDriftScenarioShapes(t *testing.T) {
	sc, err := DriftScenarioCtx(context.Background(), "stencil-grid", "bluewaters", "xeon", 0.05, 42)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Workload != "stencil-grid" || sc.SourceName != "bluewaters" || sc.TargetName != "xeon" {
		t.Fatalf("identity fields: %+v", sc)
	}
	total := sc.Train.Len() + sc.SourceTest.Len()
	if sc.Stream.Len() != total {
		t.Fatalf("stream holds %d rows, source dataset %d — same workload must give the same grid", sc.Stream.Len(), total)
	}
	wantTrain := int(0.05*float64(total) + 0.5)
	if sc.Train.Len() != wantTrain {
		t.Fatalf("train holds %d rows, want ~%d (5%%)", sc.Train.Len(), wantTrain)
	}
	if sc.Train.NumFeatures() != sc.Stream.NumFeatures() {
		t.Fatalf("feature arity differs: %d vs %d", sc.Train.NumFeatures(), sc.Stream.NumFeatures())
	}
	// The source AM must accept the stream's feature layout.
	if _, err := sc.AM.Predict(sc.Stream.X[0]); err != nil {
		t.Fatalf("source AM rejects stream features: %v", err)
	}
	// The drift must be real: the source-machine analytical model
	// scores the target stream much worse than a faster/slower clock
	// alone could hide — quantified as nonzero MAPE shift between the
	// distributions' mean response.
	srcMean, tgtMean := 0.0, 0.0
	for _, y := range sc.SourceTest.Y {
		srcMean += y
	}
	srcMean /= float64(sc.SourceTest.Len())
	for _, y := range sc.Stream.Y {
		tgtMean += y
	}
	tgtMean /= float64(sc.Stream.Len())
	if ape, _ := ml.APE(srcMean, tgtMean); ape < 10 {
		t.Fatalf("source and target response distributions are too close to inject drift: mean shift %.2f%%", ape)
	}
	// The stream is shuffled: generation order would start at the grid
	// corner; a shuffled stream will not be globally sorted by any
	// feature column.
	sorted := true
	for i := 1; i < sc.Stream.Len(); i++ {
		if sc.Stream.X[i][0] < sc.Stream.X[i-1][0] {
			sorted = false
			break
		}
	}
	if sorted {
		t.Fatal("stream is in generation order, want shuffled")
	}
}

func TestDriftScenarioErrors(t *testing.T) {
	if _, err := DriftScenarioCtx(context.Background(), "stencil-grid", "nope", "xeon", 0.05, 1); !errors.Is(err, lamerr.ErrUnknownMachine) {
		t.Fatalf("unknown source: %v", err)
	}
	if _, err := DriftScenarioCtx(context.Background(), "stencil-grid", "bluewaters", "nope", 0.05, 1); !errors.Is(err, lamerr.ErrUnknownMachine) {
		t.Fatalf("unknown target: %v", err)
	}
	if _, err := DriftScenarioCtx(context.Background(), "nope", "bluewaters", "xeon", 0.05, 1); !errors.Is(err, lamerr.ErrUnknownWorkload) {
		t.Fatalf("unknown workload: %v", err)
	}
	if _, err := DriftScenarioCtx(context.Background(), "stencil-grid", "bluewaters", "xeon", 1.5, 1); err == nil {
		t.Fatal("fraction > 1 accepted")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := DriftScenarioCtx(ctx, "stencil-grid", "bluewaters", "xeon", 0.05, 1); !errors.Is(err, lamerr.ErrCancelled) {
		t.Fatalf("cancelled build: %v", err)
	}
}
