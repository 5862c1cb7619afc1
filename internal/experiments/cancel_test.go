package experiments

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"lam/internal/dataset"
	"lam/internal/lamerr"
)

// cancelOpts keeps each trial small so the promptness bound is tight
// without making the sweep trivial.
func cancelOpts() Options {
	return Options{Seed: 42, Reps: 4, Trees: 30}
}

// assertCancelled checks the double sentinel contract: errors wrap both
// the repository-wide lamerr.ErrCancelled class and the concrete
// context cause.
func assertCancelled(t *testing.T, err error) {
	t.Helper()
	if err == nil {
		t.Fatal("expected a cancellation error, got nil")
	}
	if !errors.Is(err, lamerr.ErrCancelled) {
		t.Fatalf("error %v does not wrap lamerr.ErrCancelled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
}

// TestRunCtxMidSweepCancel cancels one figure shortly after it starts
// and checks the sweep stops promptly (bounded wall clock, far below
// the full figure's runtime) with the typed error.
func TestRunCtxMidSweepCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := RunCtx(ctx, "fig6", cancelOpts())
	elapsed := time.Since(start)
	assertCancelled(t, err)
	// One trial (2-4% training fit of a <=40-tree ensemble) is well
	// under a second even under -race; 15s is a generous ceiling that
	// still proves the sweep did not run to completion on a loaded CI
	// machine.
	if elapsed > 15*time.Second {
		t.Fatalf("cancelled figure sweep took %v", elapsed)
	}
}

// TestRunManyCtxCancelStopsBatch cancels a multi-figure batch and
// checks the typed error propagates through the batch path.
func TestRunManyCtxCancelStopsBatch(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := RunManyCtx(ctx, []string{"fig5", "fig6", "fig7"}, cancelOpts())
	elapsed := time.Since(start)
	assertCancelled(t, err)
	if elapsed > 15*time.Second {
		t.Fatalf("cancelled batch took %v", elapsed)
	}
}

// TestRunCtxPreCancelled returns immediately when the context is
// already done.
func TestRunCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err := RunCtx(ctx, "fig5", cancelOpts())
	assertCancelled(t, err)
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("pre-cancelled figure took %v", elapsed)
	}
}

// TestRunCtxUnknownFigure checks the typed unknown-figure error.
func TestRunCtxUnknownFigure(t *testing.T) {
	_, err := RunCtx(context.Background(), "fig99", cancelOpts())
	if !errors.Is(err, lamerr.ErrUnknownFigure) {
		t.Fatalf("got %v, want ErrUnknownFigure", err)
	}
}

// TestNoiseSensitivityCtxCancel covers the extension-experiment path.
func TestNoiseSensitivityCtxCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	_, err := NoiseSensitivityCtx(ctx, cancelOpts(), []float64{0.01, 0.05, 0.1})
	assertCancelled(t, err)
}

// sweepKey tags the context TestMAPECurveCtxFitsOnSweepContext hands
// the sweep.
type sweepKey struct{}

// ctxTrainable is a fake Trainable that records the context its Fit
// receives.
type ctxTrainable struct{ fit func(context.Context) error }

func (c ctxTrainable) Fit(ctx context.Context, _ *dataset.Dataset) error { return c.fit(ctx) }

func (ctxTrainable) PredictBatchInto(_ [][]float64, out []float64) error {
	for i := range out {
		out[i] = 1
	}
	return nil
}

// TestMAPECurveCtxFitsOnSweepContext: every trial's Fit receives the
// sweep's own context, so a cancel reaches fits already in flight
// instead of waiting them out.
func TestMAPECurveCtxFitsOnSweepContext(t *testing.T) {
	ds := dataset.New("x")
	for i := 0; i < 40; i++ {
		ds.MustAdd([]float64{float64(i)}, float64(i+1))
	}
	ctx := context.WithValue(context.Background(), sweepKey{}, "sweep")
	var fits atomic.Int32
	newModel := func(int64) Trainable {
		return ctxTrainable{fit: func(c context.Context) error {
			if c.Value(sweepKey{}) != "sweep" {
				return errors.New("Fit did not receive the sweep's context")
			}
			fits.Add(1)
			return nil
		}}
	}
	if _, err := MAPECurveCtx(ctx, ds, newModel, []float64{0.25, 0.5}, 3, 1, "fake", 2); err != nil {
		t.Fatal(err)
	}
	if got := fits.Load(); got != 6 {
		t.Fatalf("%d fits saw the sweep's context, want all 6 trials", got)
	}
}
