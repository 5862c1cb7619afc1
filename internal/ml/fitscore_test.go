package ml_test

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"lam/internal/dataset"
	"lam/internal/hybrid"
	"lam/internal/ml"
)

// trial is one kind of sweep trial: kept fits a model of its own on
// (X, y) and scores testX with it, and leased does the same through
// tb, as a sweep does. Both return the scores and the members'
// importances (none for the hybrid, whose model TrialCtx drops).
type trial struct {
	kept   func(X [][]float64, y []float64, testX [][]float64) ([]float64, [][]float64, error)
	leased func(tb *ml.Tables, X [][]float64, y []float64, testX [][]float64) ([]float64, [][]float64, error)
}

// mlTrial is the trial of the regressors newModel makes: Fit, or
// Tables.FitScore, then a one-worker PredictBatchInto.
func mlTrial(newModel func() ml.Regressor) trial {
	return trial{
		kept: func(X [][]float64, y []float64, testX [][]float64) ([]float64, [][]float64, error) {
			r, out := newModel(), make([]float64, len(testX))
			if err := r.Fit(X, y); err != nil {
				return nil, nil, err
			}
			err := ml.PredictBatchInto(r, testX, out, 1)
			return out, ml.Importances(r), err
		},
		leased: func(tb *ml.Tables, X [][]float64, y []float64, testX [][]float64) ([]float64, [][]float64, error) {
			r, out := newModel(), make([]float64, len(testX))
			var imps [][]float64
			err := tb.FitScore(context.Background(), r, X, y, func() error {
				imps = ml.Importances(r)
				return ml.PredictBatchInto(r, testX, out, 1)
			})
			if err == nil && ml.Fitted(r) {
				err = fmt.Errorf("model still fitted after FitScore")
			}
			return out, imps, err
		},
	}
}

// hybridTrial is hybrid.TrialCtx beside TrainCtx and a one-worker
// PredictBatchIntoCtx, with an analytical model that knows the first
// term of the response.
func hybridTrial(cfg hybrid.Config) trial {
	am := hybrid.AnalyticalFunc(func(x []float64) (float64, error) { return 10 * math.Sin(math.Pi*x[0]*x[1]), nil })
	train := func(X [][]float64, y []float64) *dataset.Dataset {
		return &dataset.Dataset{FeatureNames: []string{"x0", "x1", "x2", "x3", "x4"}, X: X, Y: y}
	}
	return trial{
		kept: func(X [][]float64, y []float64, testX [][]float64) ([]float64, [][]float64, error) {
			m, err := hybrid.TrainCtx(context.Background(), train(X, y), am, cfg)
			if err != nil {
				return nil, nil, err
			}
			out := make([]float64, len(testX))
			return out, nil, m.PredictBatchIntoCtx(context.Background(), testX, out, 1)
		},
		leased: func(tb *ml.Tables, X [][]float64, y []float64, testX [][]float64) ([]float64, [][]float64, error) {
			out := make([]float64, len(testX))
			return out, nil, hybrid.TrialCtx(context.Background(), tb, train(X, y), am, cfg, testX, out)
		},
	}
}

// fitScoreTrials are the trials a sweep runs, each fitting with the
// given worker count: the paper's extra-trees pipeline, a bootstrap
// random-forest pipeline (whose tables vary in size with the draw), a
// decision-tree pipeline, both forests bare (fitted on the lease's
// column view as it stands, with no scaler between), a pipeline over a
// model from outside the package and the hybrid over an extra-trees
// pipeline.
func fitScoreTrials(trees, workers int, seed int64) map[string]trial {
	forest := func(f *ml.Forest, piped bool) func() ml.Regressor {
		return func() ml.Regressor {
			g := *f
			g.Workers = workers
			if piped {
				return &ml.Pipeline{Model: &g}
			}
			return &g
		}
	}
	return map[string]trial{
		"et pipeline": mlTrial(forest(ml.NewExtraTrees(trees, seed), true)),
		"rf pipeline": mlTrial(forest(ml.NewRandomForest(trees, seed), true)),
		"dt pipeline": mlTrial(func() ml.Regressor {
			return &ml.Pipeline{Model: ml.NewDecisionTree(ml.TreeConfig{Splitter: ml.RandomSplitter, Seed: seed})}
		}),
		"et":                            mlTrial(forest(ml.NewExtraTrees(trees, seed), false)),
		"rf":                            mlTrial(forest(ml.NewRandomForest(trees, seed), false)),
		"pipeline over a foreign model": mlTrial(func() ml.Regressor { return &ml.Pipeline{Model: new(firstRow)} }),
		"hybrid": hybridTrial(hybrid.Config{
			Seed: seed,
			NewML: func() ml.Regressor {
				f := ml.NewExtraTrees(trees, seed)
				f.Workers = workers
				return &ml.Pipeline{Model: f}
			},
		}),
	}
}

// firstRow is a regressor from outside the package, which a pipeline
// fits on scaled rows: it scores x by its dot product with the first
// training row, plus the last response.
type firstRow struct {
	row []float64
	y   float64
}

func (m *firstRow) Fit(X [][]float64, y []float64) error {
	m.row, m.y = append([]float64(nil), X[0]...), y[len(y)-1]
	return nil
}

func (m *firstRow) Predict(x []float64) float64 {
	s := m.y
	for j, v := range x {
		s += v * m.row[j]
	}
	return s
}

// fitScoreSizes grow, shrink and grow again, so most fits reuse memory
// that still holds a larger or a differently shaped fit's values, and
// the held-out set is routed after some fits and walked after others.
var fitScoreSizes = []int{40, 160, 25, 90, 300, 12, 300, 60}

// checkTrial runs tr once kept and once through tb on k training rows
// from lo and compares the two, bit for bit.
func checkTrial(tr trial, tb *ml.Tables, X [][]float64, y []float64, lo, k int, testX [][]float64) error {
	trainX, trainY := X[lo:lo+k], y[lo:lo+k]
	want, wantImps, err := tr.kept(trainX, trainY, testX)
	if err != nil {
		return err
	}
	got, gotImps, err := tr.leased(tb, trainX, trainY, testX)
	if err != nil {
		return err
	}
	return sameScores(got, want, gotImps, wantImps)
}

// TestFitScoreMatchesFit: a trial fitted through a Tables scores its
// held-out rows, and its members carry importances, bit for bit as the
// same model fitted on its own does, whatever its borrowed memory held,
// and the model is unfitted when FitScore returns. Between rounds every
// buffer the Tables lends is poisoned (NaN, -1, nil) and the collector
// runs, so a buffer a fit reads before it writes it — importances not
// cleared, a stale builder index — shows. At workers 1, 2 and 7, as
// many goroutines run a round's trials at once on one Tables, so
// memory passes between concurrent fits.
func TestFitScoreMatchesFit(t *testing.T) {
	X, y := ml.Friedman1(700, 0.5, 21)
	testX := X[400:]
	for _, workers := range []int{1, 2, 7} {
		for name, tr := range fitScoreTrials(12, workers, int64(workers)) {
			var tb ml.Tables
			for i, k := range fitScoreSizes {
				var wg sync.WaitGroup
				errs := make(chan error, workers)
				for g := range workers {
					wg.Add(1)
					go func() {
						defer wg.Done()
						errs <- checkTrial(tr, &tb, X, y, (g*37+i*11)%100, k, testX)
					}()
				}
				wg.Wait()
				close(errs)
				for err := range errs {
					if err != nil {
						t.Fatalf("%s workers %d size %d: %v", name, workers, k, err)
					}
				}
				ml.PoisonTables(&tb)
				runtime.GC()
			}
			if held := ml.HeldTables(&tb); held > workers {
				t.Errorf("%s workers %d: Tables holds %d tables after %d concurrent trial sequences", name, workers, held, workers)
			}
		}
	}
}

// TestFitScoreConcurrentSequences: goroutines that each run the whole
// size sequence on one Tables, each from its own place in it and in no
// step with the others, so fits of different sizes and shapes borrow
// and hand back the same memory at once, each score bit for bit as the
// kept model does.
func TestFitScoreConcurrentSequences(t *testing.T) {
	X, y := ml.Friedman1(700, 0.5, 22)
	testX := X[400:]
	for _, workers := range []int{1, 2, 7} {
		for name, tr := range fitScoreTrials(12, workers, int64(workers)) {
			var tb ml.Tables
			var wg sync.WaitGroup
			errs := make(chan error, workers)
			for g := range workers {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := range fitScoreSizes {
						k := fitScoreSizes[(i+g)%len(fitScoreSizes)]
						if err := checkTrial(tr, &tb, X, y, (g*37+i*11)%100, k, testX); err != nil {
							errs <- fmt.Errorf("size %d: %w", k, err)
							return
						}
					}
					errs <- nil
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				if err != nil {
					t.Errorf("%s workers %d: %v", name, workers, err)
				}
			}
			if held := ml.HeldTables(&tb); held > workers {
				t.Errorf("%s workers %d: Tables holds %d tables after %d concurrent trial sequences", name, workers, held, workers)
			}
		}
	}
}

// sameScores compares a leased trial's scores and importances with the
// kept model's, bit for bit.
func sameScores(got, want []float64, gotImps, wantImps [][]float64) error {
	for j := range want {
		if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
			return fmt.Errorf("row %d: the trial scored %v, the kept model %v", j, got[j], want[j])
		}
	}
	if len(gotImps) != len(wantImps) {
		return fmt.Errorf("the trial's model has %d members, the kept model %d", len(gotImps), len(wantImps))
	}
	for tr := range wantImps {
		for f := range wantImps[tr] {
			if math.Float64bits(gotImps[tr][f]) != math.Float64bits(wantImps[tr][f]) {
				return fmt.Errorf("tree %d feature %d: the trial's importance is %v, the kept model's %v", tr, f, gotImps[tr][f], wantImps[tr][f])
			}
		}
	}
	return nil
}
