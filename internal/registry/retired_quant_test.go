package registry

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
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
// artifacts of a retired kind into the registry as version
// meta.Version of meta.Name — what `lam-model quantize` left behind in
// registries written while quantised tables existed, or what a build
// with the retired estimators could have written.
func plantRetiredQuant(t testing.TB, reg *Registry, fixture string, meta Meta) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "artifact", "testdata", fixture))
	if err != nil {
		t.Fatal(err)
	}
	plantArtifact(t, reg, data, meta)
}

// plantArtifact writes data as the lamb1 artifact of meta.Name at
// meta.Version, with meta beside it.
func plantArtifact(t testing.TB, reg *Registry, data []byte, meta Meta) {
	t.Helper()
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

// requireRefusal requires a typed refusal whose error names want.
func requireRefusal(t *testing.T, label string, err error, want string) {
	t.Helper()
	if !errors.Is(err, lamerr.ErrCorruptArtifact) {
		t.Fatalf("%s: got %v, want an error wrapping ErrCorruptArtifact", label, err)
	}
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("%s: error %q does not name %s", label, err, want)
	}
}

// TestRetiredQuantRefusedAtLoad: a quantised version beside its exact
// source is refused by Load and ArtifactInfo with a typed, readable
// error, and the exact version keeps loading and predicting exactly.
// So is a version of a retired estimator kind.
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
	plantRetiredQuant(t, reg, "lamb1_v1_gbr.lamb", Meta{Name: "m", Version: 3, Kind: KindRegressor})

	_, err = reg.Load("m", 0) // latest is the gradient-boosting copy
	requireRefusal(t, "Load latest", err, `retired estimator kind "gbr"`)
	_, err = reg.Load("m", 3)
	requireRefusal(t, "Load v3", err, `retired estimator kind "gbr"`)
	_, _, err = reg.ArtifactInfo("m", 3)
	requireRefusal(t, "ArtifactInfo v3", err, `retired estimator kind "gbr"`)
	_, err = reg.Load("m", 2)
	requireRefusal(t, "Load v2", err, "quantized")
	_, _, err = reg.ArtifactInfo("m", 2)
	requireRefusal(t, "ArtifactInfo v2", err, "quantized")
	_, err = reg.Load("h", 1)
	requireRefusal(t, "Load hybrid", err, "quantized")

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

// TestLoadRefusesInconsistentArity: an artifact whose forest header
// claims fewer features than its trees split on would otherwise load
// and panic on its first predict, off the handler goroutine. Load
// refuses it like any corrupt version, and the intact version beside
// it loads.
func TestLoadRefusesInconsistentArity(t *testing.T) {
	X := make([][]float64, 60)
	y := make([]float64, 60)
	for i := range X {
		X[i] = []float64{float64(i % 11), float64(i % 7), float64(i % 3)}
		y[i] = X[i][0] + X[i][1]*X[i][2]
	}
	f := ml.NewExtraTrees(4, 2)
	if err := f.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	reg, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.SaveRegressor(f, Meta{Name: "f"}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(reg.versionDir("f", 1), "model.lamb"))
	if err != nil {
		t.Fatal(err)
	}
	// The forest payload's arity word follows its kind, tree count,
	// bootstrap flag and seed; the trailer is the CRC-32C of the rest.
	data = bytes.Clone(data)
	binary.LittleEndian.PutUint64(data[24+32:], 2)
	body := data[:len(data)-4]
	binary.LittleEndian.PutUint32(data[len(body):], crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
	plantArtifact(t, reg, data, Meta{Name: "f", Version: 2, Kind: KindRegressor})

	_, err = reg.Load("f", 2)
	requireRefusal(t, "Load v2", err, "forest over 2 features")
	if _, err := reg.Load("f", 1); err != nil {
		t.Fatalf("intact version: %v", err)
	}
}
