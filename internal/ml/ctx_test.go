package ml

import (
	"context"
	"errors"
	"slices"
	"testing"
	"time"

	"lam/internal/lamerr"
)

// ctxTrainingSet builds a small deterministic regression problem.
func ctxTrainingSet(n int) ([][]float64, []float64) {
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		a := float64(i % 17)
		b := float64(i % 5)
		X[i] = []float64{a, b, float64(i)}
		y[i] = 3*a - b + 0.25*float64(i)
	}
	return X, y
}

// predictWorkers scores X through the one batch entry point with the
// given worker count, failing the test on a typed error.
func predictWorkers(t testing.TB, r Regressor, X [][]float64, workers int) []float64 {
	t.Helper()
	out := make([]float64, len(X))
	if err := PredictBatchIntoCtx(context.Background(), r, X, out, workers); err != nil {
		t.Fatal(err)
	}
	return out
}

// predictAll is predictWorkers on the default pool.
func predictAll(t testing.TB, r Regressor, X [][]float64) []float64 {
	t.Helper()
	return predictWorkers(t, r, X, 0)
}

// TestFitCtxPreCancelledLeavesModelUntrained checks that a cancelled
// fit reports the typed error and does not mutate the estimator.
func TestFitCtxPreCancelledLeavesModelUntrained(t *testing.T) {
	X, y := ctxTrainingSet(64)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, r := range []Regressor{
		NewExtraTrees(10, 1),
		NewRandomForest(4, 1),
		&Pipeline{Model: NewExtraTrees(5, 2)},
	} {
		err := FitCtx(ctx, r, X, y)
		if err == nil {
			t.Fatalf("%T: cancelled fit returned nil error", r)
		}
		if !errors.Is(err, lamerr.ErrCancelled) || !errors.Is(err, context.Canceled) {
			t.Fatalf("%T: error %v missing cancellation sentinels", r, err)
		}
		if Fitted(r) {
			t.Fatalf("%T: estimator reports fitted after cancelled fit", r)
		}
	}
}

// TestPipelineRefitCancelKeepsOldState checks a cancelled refit of an
// already-fitted pipeline leaves the previous scaler+model pair
// consistent (predictions unchanged), not a half-updated hybrid.
func TestPipelineRefitCancelKeepsOldState(t *testing.T) {
	X, y := ctxTrainingSet(80)
	p := &Pipeline{Model: NewExtraTrees(10, 3)}
	if err := p.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	before := p.Predict(X[0])

	// Refit on shifted data with a pre-cancelled context: the inner fit
	// must refuse, and the scaler must not have been re-fitted.
	shifted := make([][]float64, len(X))
	for i, row := range X {
		s := make([]float64, len(row))
		for j, v := range row {
			s[j] = v*100 + 5
		}
		shifted[i] = s
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := p.FitCtx(ctx, shifted, y); !errors.Is(err, lamerr.ErrCancelled) {
		t.Fatalf("cancelled refit: got %v, want ErrCancelled", err)
	}
	if got := p.Predict(X[0]); got != before {
		t.Fatalf("prediction changed after cancelled refit: %v != %v", got, before)
	}
}

// TestForestRefitCancelledMidFit cancels a refit while its trees are
// growing: the fit reports the cancellation, the forest keeps its
// previous model, and the next fit — drawing the builders the cancelled
// one handed back — is bit-identical to a fresh forest's.
func TestForestRefitCancelledMidFit(t *testing.T) {
	X, y := ctxTrainingSet(64)
	f := NewExtraTrees(10, 4)
	f.Workers = 2
	if err := f.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	compiled, want := f.compiled, predictAll(t, f, X)

	f.NTrees = 50000 // far more than grow before the cancellation lands
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(2*time.Millisecond, cancel)
	if err := f.FitCtx(ctx, X, y); !errors.Is(err, lamerr.ErrCancelled) {
		t.Fatalf("cancelled refit: got %v, want ErrCancelled", err)
	}
	if f.compiled != compiled || len(f.trees) != 10 {
		t.Fatalf("cancelled refit replaced the model: %d trees", len(f.trees))
	}
	if got := predictAll(t, f, X); !slices.Equal(got, want) {
		t.Fatal("cancelled refit changed the predictions")
	}

	f.NTrees = 10
	if err := f.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	fresh := NewExtraTrees(10, 4)
	if err := fresh.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	assertSameTrees(t, "refit after a cancelled fit", f.trees, fresh.trees)
}

// TestPredictBatchCtxMatchesSequential checks bit-identical output and
// the not-fitted guard.
func TestPredictBatchCtxMatchesSequential(t *testing.T) {
	X, y := ctxTrainingSet(200)
	et := NewExtraTrees(20, 7)

	got := make([]float64, len(X))
	if err := PredictBatchIntoCtx(context.Background(), et, X, got, 0); !errors.Is(err, lamerr.ErrNotFitted) {
		t.Fatalf("unfitted batch predict: got %v, want ErrNotFitted", err)
	}

	if err := et.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if err := PredictBatchIntoCtx(context.Background(), et, X, got, 0); err != nil {
		t.Fatal(err)
	}
	for i, x := range X {
		if got[i] != et.Predict(x) {
			t.Fatalf("row %d: batch %v != sequential %v", i, got[i], et.Predict(x))
		}
	}
}

// TestEnsembleNumFeatures checks the ensemble and its wrapper report
// the original feature arity, so the serving guards catch wrong-arity
// input instead of panicking.
func TestEnsembleNumFeatures(t *testing.T) {
	X, y := ctxTrainingSet(60)
	forest := NewRandomForest(3, 1)
	if err := forest.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	pipe := &Pipeline{Model: NewExtraTrees(3, 1)}
	if err := pipe.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	for _, r := range []Regressor{forest, pipe} {
		if n, ok := NumFeaturesOf(r); !ok || n != 3 {
			t.Fatalf("%T: NumFeaturesOf = (%d, %v), want (3, true)", r, n, ok)
		}
		if err := PredictBatchIntoCtx(context.Background(), r, [][]float64{{1}}, make([]float64, 1), 0); !errors.Is(err, lamerr.ErrDimension) {
			t.Fatalf("%T: wrong-arity batch: got %v, want ErrDimension", r, err)
		}
	}
}
