package ml

import (
	"context"
	"errors"
	"fmt"
	"math"

	"lam/internal/parallel"
)

// ParamGrid names one hyperparameter axis and its candidate values.
type ParamGrid struct {
	Name   string
	Values []float64
}

// GridSearchResult reports one evaluated hyperparameter combination.
type GridSearchResult struct {
	// Params maps axis name to the chosen value.
	Params map[string]float64
	// Score is the mean cross-validation score (lower is better).
	Score float64
}

// GridSearchCtx exhaustively evaluates the cartesian product of the
// parameter grids with k-fold cross-validation and returns every
// combination's mean score plus the best one. newModel receives the
// parameter assignment and must build the corresponding estimator;
// score is the loss to minimise (e.g. MAPE). workers bounds the
// candidate fan-out (<= 0 means GOMAXPROCS, 1 forces sequential
// evaluation). The candidate list is enumerated before fan-out and
// results are stored in enumeration order — ties therefore resolve to
// the same candidate as a sequential scan, making the result
// bit-identical for every worker count. Cross-validation inside each
// candidate runs sequentially to keep the pool busy with whole
// candidates. The context is checked between candidates and between
// the folds inside each candidate.
func GridSearchCtx(
	ctx context.Context,
	grids []ParamGrid,
	newModel func(params map[string]float64) Regressor,
	X [][]float64, y []float64,
	k int, seed int64,
	score func(yTrue, yPred []float64) float64,
	workers int,
) (best GridSearchResult, all []GridSearchResult, err error) {
	candidates, err := enumerateGrid(grids)
	if err != nil {
		return best, nil, err
	}
	if _, err := checkXY(X, y); err != nil {
		return best, nil, err
	}
	all, err = parallel.MapCtx(ctx, len(candidates), workers, func(c int) (GridSearchResult, error) {
		params := candidates[c]
		scores, err := CrossValScoreCtx(ctx, func() Regressor { return newModel(params) },
			X, y, k, seed, score, 1)
		if err != nil {
			return GridSearchResult{}, err
		}
		mean := 0.0
		for _, s := range scores {
			mean += s
		}
		mean /= float64(len(scores))
		return GridSearchResult{Params: params, Score: mean}, nil
	})
	if err != nil {
		return best, nil, err
	}
	best.Score = math.Inf(1)
	for _, res := range all {
		if res.Score < best.Score {
			best = res
		}
	}
	return best, all, nil
}

// enumerateGrid validates the parameter grids and expands their
// cartesian product with a mixed-radix counter, in a deterministic
// enumeration order.
func enumerateGrid(grids []ParamGrid) ([]map[string]float64, error) {
	if len(grids) == 0 {
		return nil, errors.New("ml: grid search needs at least one parameter grid")
	}
	for _, g := range grids {
		if len(g.Values) == 0 {
			return nil, fmt.Errorf("ml: parameter %q has no candidate values", g.Name)
		}
	}
	var candidates []map[string]float64
	idx := make([]int, len(grids))
	for {
		params := make(map[string]float64, len(grids))
		for i, g := range grids {
			params[g.Name] = g.Values[idx[i]]
		}
		candidates = append(candidates, params)
		carry := len(grids) - 1
		for carry >= 0 {
			idx[carry]++
			if idx[carry] < len(grids[carry].Values) {
				break
			}
			idx[carry] = 0
			carry--
		}
		if carry < 0 {
			break
		}
	}
	return candidates, nil
}
