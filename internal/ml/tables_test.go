package ml

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync"
	"testing"

	"lam/internal/lamerr"
)

// trialModels are the estimators a sweep fits through FitScore: the
// paper's extra-trees pipeline, a bootstrap random forest (whose tables
// vary in size with the draw) and a bare decision tree, each fitting
// with the given worker count.
func trialModels(trees, workers int, seed int64) map[string]func() Regressor {
	return map[string]func() Regressor{
		"et pipeline": func() Regressor {
			f := NewExtraTrees(trees, seed)
			f.Workers = workers
			return &Pipeline{Model: f}
		},
		"rf": func() Regressor {
			f := NewRandomForest(trees, seed)
			f.Workers = workers
			return f
		},
		"dt pipeline": func() Regressor {
			return &Pipeline{Model: NewDecisionTree(TreeConfig{Splitter: RandomSplitter, Seed: seed})}
		},
	}
}

// trialSizes grow, shrink and grow again, so most fits reuse a table
// that still holds a larger or a differently shaped fit's records.
var trialSizes = []int{40, 160, 25, 90, 300, 12, 300, 60}

// TestFitScoreMatchesFit: a model fitted through FitScore scores its
// held-out rows bit for bit as the same model fitted with Fit does,
// whatever stale records its reused table holds, and it is unfitted
// when FitScore returns. At workers 1, 2 and 7, as many goroutines run
// the size sequence at once on one Tables, so tables pass between
// concurrent fits.
func TestFitScoreMatchesFit(t *testing.T) {
	X, y := friedman1(700, 0.5, 21)
	testX := X[400:]
	for _, workers := range []int{1, 2, 7} {
		for name, newModel := range trialModels(12, workers, int64(workers)) {
			var tb Tables
			var wg sync.WaitGroup
			for g := range workers {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i, k := range trialSizes {
						lo := (g*37 + i*11) % 100
						trainX, trainY := X[lo:lo+k], y[lo:lo+k]
						kept, want, got := newModel(), make([]float64, len(testX)), make([]float64, len(testX))
						r := newModel()
						err := kept.Fit(trainX, trainY)
						if err == nil {
							err = PredictBatchInto(kept, testX, want, 1)
						}
						if err == nil {
							err = tb.FitScore(context.Background(), r, trainX, trainY, func() error {
								return PredictBatchInto(r, testX, got, 1)
							})
						}
						if err != nil {
							t.Errorf("%s workers %d size %d: %v", name, workers, k, err)
							return
						}
						for j := range want {
							if !sameBits(got[j], want[j]) {
								t.Errorf("%s workers %d size %d row %d: FitScore model scored %v, Fit model %v", name, workers, k, j, got[j], want[j])
								return
							}
						}
						if Fitted(r) {
							t.Errorf("%s workers %d size %d: model still fitted after FitScore", name, workers, k)
						}
					}
				}()
			}
			wg.Wait()
			if len(tb.free) > workers {
				t.Errorf("%s workers %d: Tables holds %d tables after %d concurrent trial sequences", name, workers, len(tb.free), workers)
			}
		}
	}
}

// fitted fits r on (X, y) with Fit and returns it.
func fitted(t *testing.T, r Regressor, X [][]float64, y []float64) Regressor {
	t.Helper()
	if err := r.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	return r
}

// TestFitScoreLeavesKeptModelsAlone: models fitted through the public
// Fit hold tables of their own, so many FitScore trials beside them —
// before, during and after — leave their predictions bit for bit.
func TestFitScoreLeavesKeptModelsAlone(t *testing.T) {
	X, y := friedman1(600, 0.5, 5)
	var kept []Regressor
	var want [][]float64
	var tb Tables
	for name, newModel := range trialModels(10, 2, 3) {
		r := fitted(t, newModel(), X[:150], y[:150])
		kept = append(kept, r)
		want = append(want, predictAll(t, r, X[300:]))
		for i, k := range trialSizes {
			s := newModel()
			out := make([]float64, 300)
			if err := tb.FitScore(context.Background(), s, X[i:i+k], y[i:i+k], func() error {
				return PredictBatchInto(s, X[300:], out, 1)
			}); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
	}
	for i, r := range kept {
		got := predictAll(t, r, X[300:])
		for j := range got {
			if !sameBits(got[j], want[i][j]) {
				t.Fatalf("kept model %d row %d: %v after the trials, %v before", i, j, got[j], want[i][j])
			}
		}
	}
}

// cancelAfterFirstCheck is a context that passes the first Err check
// and is cancelled from then on: a fit it reaches gets past its
// up-front check, takes its table and is cancelled before its first
// tree.
type cancelAfterFirstCheck struct {
	context.Context
	mu     sync.Mutex
	checks int
	done   chan struct{}
}

func newCancelAfterFirstCheck() *cancelAfterFirstCheck {
	c := &cancelAfterFirstCheck{Context: context.Background(), done: make(chan struct{})}
	close(c.done)
	return c
}

func (c *cancelAfterFirstCheck) Done() <-chan struct{} { return c.done }

func (c *cancelAfterFirstCheck) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.checks++
	if c.checks == 1 {
		return nil
	}
	return context.Canceled
}

// TestFitScoreCancelledMidFit: a fit cancelled after it took its table
// returns the typed cancellation error without calling score (so out
// stays as it was), leaves the model unfitted and hands the table back
// to its Tables.
func TestFitScoreCancelledMidFit(t *testing.T) {
	X, y := friedman1(300, 0.5, 9)
	for _, workers := range []int{1, 2} {
		var tb Tables
		f := NewExtraTrees(20, 4)
		f.Workers = workers
		out := []float64{math.Pi, math.E}
		err := tb.FitScore(newCancelAfterFirstCheck(), f, X, y, func() error {
			out[0], out[1] = 0, 0
			return nil
		})
		if !errors.Is(err, lamerr.ErrCancelled) || !errors.Is(err, context.Canceled) {
			t.Fatalf("workers %d: got %v, want a cancellation error", workers, err)
		}
		if out[0] != math.Pi || out[1] != math.E {
			t.Errorf("workers %d: a cancelled trial wrote out: %v", workers, out)
		}
		if f.IsFitted() {
			t.Errorf("workers %d: a cancelled trial left its model fitted", workers)
		}
		if len(tb.free) != 1 || tb.high == 0 || cap(tb.free[0]) < tb.high {
			t.Errorf("workers %d: the cancelled fit's table was not handed back: %d free, high %d", workers, len(tb.free), tb.high)
		}
	}
}

// TestFitScoreTrialBytes: once its Tables holds a table, a trial
// allocates only what depends on its rows, features and tree count —
// the column view, the builder's per-row memory, the member headers —
// and nothing per node: across a 90-fold spread of trees × nodes its
// bytes stay within a budget without the 16 B/node term of fitBudget.
func TestFitScoreTrialBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	X, y := friedman1(900, 0.5, 17)
	for _, c := range []struct{ trees, n int }{{10, 100}, {100, 100}, {100, 400}, {100, 900}} {
		var tb Tables
		nodes := 0
		trial := func() {
			f := NewExtraTrees(c.trees, 8)
			f.Workers = 1
			if err := tb.FitScore(context.Background(), f, X[:c.n], y[:c.n], func() error {
				nodes = f.compiled.NumNodes()
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
		trial()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		trial()
		runtime.ReadMemStats(&after)
		bytes := after.TotalAlloc - before.TotalAlloc
		p := len(X[0])
		budget := uint64(8*c.n*p) + uint64(5<<10+32*c.n) + uint64(c.trees*(160+8*p)) + 4<<10
		t.Logf("%d trees on %d rows: %d nodes (%d B of table), trial %d B, budget %d B", c.trees, c.n, nodes, 16*nodes, bytes, budget)
		if bytes > budget {
			t.Errorf("%d trees on %d rows: a steady-state trial allocated %d bytes for %d nodes, budget %d", c.trees, c.n, bytes, nodes, budget)
		}
	}
}
