package hybrid

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"lam/internal/dataset"
	"lam/internal/lamerr"
	"lam/internal/ml"
)

// TestTrialMatchesTrainAndPredict: a sweep trial — TrialCtx, its ML
// component fitted into a reused table — scores its held-out rows bit
// for bit as TrainCtx followed by a one-worker PredictBatchIntoCtx
// does, with and without the aggregate. Training sizes grow, shrink and
// grow again so reused tables hold stale records, and at workers 1, 2
// and 7 as many goroutines run trials at once on one ml.Tables.
func TestTrialMatchesTrainAndPredict(t *testing.T) {
	full, am := syntheticWorkload(900, 71)
	test := &dataset.Dataset{FeatureNames: full.FeatureNames, X: full.X[300:], Y: full.Y[300:]}
	sizes := []int{30, 120, 20, 60, 150, 10}
	for _, workers := range []int{1, 2, 7} {
		for _, agg := range []bool{false, true} {
			var tables ml.Tables
			var wg sync.WaitGroup
			errs := make(chan error, workers)
			for g := range workers {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i, k := range sizes {
						lo := (g*41 + i*13) % 120
						train := &dataset.Dataset{FeatureNames: full.FeatureNames, X: full.X[lo : lo+k], Y: full.Y[lo : lo+k]}
						cfg := Config{Aggregate: agg, Seed: int64(i), Workers: workers}
						if err := trialMatches(&tables, train, test, am, cfg); err != nil {
							errs <- fmt.Errorf("workers %d aggregate %v size %d: %w", workers, agg, k, err)
							return
						}
					}
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
		}
	}
}

// trialMatches runs one trial and compares it with TrainCtx and a
// one-worker batch over the same rows.
func trialMatches(tables *ml.Tables, train, test *dataset.Dataset, am AnalyticalModel, cfg Config) error {
	m, err := TrainCtx(context.Background(), train, am, cfg)
	if err != nil {
		return err
	}
	want := make([]float64, test.Len())
	if err := m.PredictBatchIntoCtx(context.Background(), test.X, want, 1); err != nil {
		return err
	}
	got := make([]float64, test.Len())
	if err := TrialCtx(context.Background(), tables, train, am, cfg, test.X, got); err != nil {
		return err
	}
	for i := range want {
		if !sameBits(got[i], want[i]) {
			return fmt.Errorf("row %d: trial scored %v, TrainCtx's model %v", i, got[i], want[i])
		}
	}
	return nil
}

// doneLater is a context with no Done channel the first time it is
// asked and a closed one after: the analytical pass of a trial, which
// asks first, runs uncancellable, and the ML component's fit that
// follows is cancelled after it has taken its table.
type doneLater struct {
	context.Context
	mu    sync.Mutex
	asked bool
	done  chan struct{}
}

func (c *doneLater) Done() <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.asked {
		c.asked = true
		return nil
	}
	return c.done
}

func (c *doneLater) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.asked {
		return context.Canceled
	}
	return nil
}

// TestTrialCancelledLeavesOutUntouched: a trial cancelled while its ML
// component fits returns the typed cancellation error and writes none
// of its held-out scores.
func TestTrialCancelledLeavesOutUntouched(t *testing.T) {
	full, am := syntheticWorkload(200, 73)
	var tables ml.Tables
	ctx := &doneLater{Context: context.Background(), done: make(chan struct{})}
	close(ctx.done)
	out := make([]float64, 150)
	for i := range out {
		out[i] = -12345
	}
	train := &dataset.Dataset{FeatureNames: full.FeatureNames, X: full.X[:50], Y: full.Y[:50]}
	err := TrialCtx(ctx, &tables, train, am, Config{Workers: 1}, full.X[50:], out)
	if !errors.Is(err, lamerr.ErrCancelled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want a cancellation wrapping lamerr.ErrCancelled and context.Canceled", err)
	}
	if !ctx.asked {
		t.Fatal("the trial never reached its ML fit")
	}
	for i, v := range out {
		if v != -12345 {
			t.Fatalf("row %d written (%v) by a trial cancelled in its fit", i, v)
		}
	}
}
