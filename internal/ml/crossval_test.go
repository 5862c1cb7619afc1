package ml

import (
	"context"
	"math/rand"
	"testing"
)

func TestKFoldIndicesPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	folds := KFoldIndices(10, 3, rng)
	if len(folds) != 3 {
		t.Fatalf("got %d folds, want 3", len(folds))
	}
	seen := map[int]int{}
	for _, f := range folds {
		for _, i := range f {
			seen[i]++
		}
	}
	if len(seen) != 10 {
		t.Errorf("folds cover %d indices, want 10", len(seen))
	}
	for i, c := range seen {
		if c != 1 {
			t.Errorf("index %d appears %d times", i, c)
		}
	}
	// Fold sizes differ by at most one.
	min, max := len(folds[0]), len(folds[0])
	for _, f := range folds {
		if len(f) < min {
			min = len(f)
		}
		if len(f) > max {
			max = len(f)
		}
	}
	if max-min > 1 {
		t.Errorf("fold sizes range [%d, %d], want spread <= 1", min, max)
	}
}

func TestKFoldIndicesClamping(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if got := len(KFoldIndices(5, 100, rng)); got != 5 {
		t.Errorf("k clamped to n: got %d folds, want 5", got)
	}
	if got := len(KFoldIndices(5, 0, rng)); got != 2 {
		t.Errorf("k clamped up to 2: got %d folds, want 2", got)
	}
}

func TestCrossValScoreOnLearnableData(t *testing.T) {
	X, y := friedman1(300, 0.2, 41)
	scores, err := CrossValScoreCtx(context.Background(),
		func() Regressor { return NewExtraTrees(30, 1) },
		X, y, 5, 7, MAPE, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != 5 {
		t.Fatalf("got %d scores, want 5", len(scores))
	}
	for i, s := range scores {
		if s < 0 || s > 50 {
			t.Errorf("fold %d MAPE = %v, want sane (0, 50)", i, s)
		}
	}
}

func TestCrossValScoreErrors(t *testing.T) {
	if _, err := CrossValScoreCtx(context.Background(), func() Regressor { return &KNN{} }, nil, nil, 3, 1, MAPE, 0); err == nil {
		t.Error("expected error on empty data")
	}
}
