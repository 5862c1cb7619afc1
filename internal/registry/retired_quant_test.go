package registry

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"lam/internal/artifact"
	"lam/internal/lamerr"
	"lam/internal/ml"
)

// plantRetiredQuant writes one of internal/artifact's committed
// retired-quantised artifacts into the registry as the next version of
// meta.Name — what `lam-model quantize` left behind in registries
// written before PR 26.
func plantRetiredQuant(t testing.TB, reg *Registry, fixture string, meta Meta) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "artifact", "testdata", fixture))
	if err != nil {
		t.Fatal(err)
	}
	meta.Format = artifact.FormatLAMB1
	meta.CreatedAt = time.Unix(0, 0).UTC()
	raw, err := json.Marshal(meta)
	if err != nil {
		t.Fatal(err)
	}
	dir := reg.versionDir(meta.Name, meta.Version)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "model.lamb"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "meta.json"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

func requireQuantRefusal(t *testing.T, label string, err error) {
	t.Helper()
	if !errors.Is(err, lamerr.ErrCorruptArtifact) {
		t.Fatalf("%s: got %v, want an error wrapping ErrCorruptArtifact", label, err)
	}
	if !strings.Contains(err.Error(), "quantized") {
		t.Fatalf("%s: error %q does not name quantisation", label, err)
	}
}

// TestRetiredQuantRefusedAtLoad: a quantised version beside its exact
// source is refused by Load and ArtifactInfo with a typed, readable
// error, and the exact version keeps loading and predicting exactly.
func TestRetiredQuantRefusedAtLoad(t *testing.T) {
	X := make([][]float64, 150)
	y := make([]float64, 150)
	for i := range X {
		X[i] = []float64{float64(i % 17), float64(i % 5), float64(i % 3)}
		y[i] = X[i][0] - 2*X[i][1] + 0.25*X[i][2]
	}
	f := ml.NewExtraTrees(10, 4)
	if err := f.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	reg, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.SaveRegressor(f, Meta{Name: "m"}); err != nil {
		t.Fatal(err)
	}
	plantRetiredQuant(t, reg, "retired_quant16_forest.lamb", Meta{Name: "m", Version: 2, Kind: KindRegressor})
	plantRetiredQuant(t, reg, "retired_quant8_hybrid.lamb",
		Meta{Name: "h", Version: 1, Kind: KindHybrid, Workload: "stencil-grid", Machine: "bluewaters"})

	_, err = reg.Load("m", 0) // latest is the quantised copy
	requireQuantRefusal(t, "Load latest", err)
	_, err = reg.Load("m", 2)
	requireQuantRefusal(t, "Load v2", err)
	_, _, err = reg.ArtifactInfo("m", 2)
	requireQuantRefusal(t, "ArtifactInfo v2", err)
	_, err = reg.Load("h", 1)
	requireQuantRefusal(t, "Load hybrid", err)

	lm, err := reg.Load("m", 1)
	if err != nil {
		t.Fatalf("exact source version: %v", err)
	}
	got, err := lm.PredictBatch(context.Background(), X)
	if err != nil {
		t.Fatal(err)
	}
	for i := range X {
		if math.Float64bits(got[i]) != math.Float64bits(f.Predict(X[i])) {
			t.Fatalf("row %d: exact version diverges beside a refused quantised one", i)
		}
	}
}
