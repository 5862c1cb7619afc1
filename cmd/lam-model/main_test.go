package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"lam/internal/ml"
	"lam/internal/registry"
)

// TestMain lets the tests run this binary as lam-model itself: with
// LAM_MODEL_TEST_CLI=1 the test binary runs main() on its arguments.
func TestMain(m *testing.M) {
	if os.Getenv("LAM_MODEL_TEST_CLI") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

func runCLI(t *testing.T, args ...string) (stdout, stderr string, exit int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "LAM_MODEL_TEST_CLI=1")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	var ee *exec.ExitError
	switch {
	case errors.As(err, &ee):
		exit = ee.ExitCode()
	case err != nil:
		t.Fatal(err)
	}
	return out.String(), errb.String(), exit
}

// TestInfoRefusesRetiredQuant: `lam-model info` on a retired quantised
// version prints the refusal and exits non-zero; the exact source
// version beside it still inspects.
func TestInfoRefusesRetiredQuant(t *testing.T) {
	X := make([][]float64, 60)
	y := make([]float64, 60)
	for i := range X {
		X[i] = []float64{float64(i % 11), float64(i % 4), float64(i % 3)}
		y[i] = X[i][0] + X[i][1] - X[i][2]
	}
	f := ml.NewExtraTrees(3, 1)
	if err := f.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	reg, err := registry.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.SaveRegressor(f, registry.Meta{Name: "m"}); err != nil {
		t.Fatal(err)
	}
	quant, err := os.ReadFile(filepath.Join("..", "..", "internal", "artifact", "testdata", "retired_quant16_forest.lamb"))
	if err != nil {
		t.Fatal(err)
	}
	v2 := filepath.Join(dir, "m", "v0002")
	if err := os.MkdirAll(v2, 0o755); err != nil {
		t.Fatal(err)
	}
	meta, err := json.Marshal(registry.Meta{Name: "m", Version: 2, Kind: registry.KindRegressor, Format: "lamb1"})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(v2, "meta.json"), meta, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(v2, "model.lamb"), quant, 0o644); err != nil {
		t.Fatal(err)
	}

	_, stderr, exit := runCLI(t, "info", "-registry", dir, "-name", "m")
	if exit == 0 {
		t.Fatal("info on a retired quantised version exited 0")
	}
	if !strings.Contains(stderr, "quantized") || !strings.Contains(stderr, "re-publish") {
		t.Fatalf("stderr %q does not name quantisation and the remedy", stderr)
	}

	stdout, stderr, exit := runCLI(t, "info", "-registry", dir, "-name", "m", "-version", "1")
	if exit != 0 {
		t.Fatalf("info on the exact version exited %d: %s", exit, stderr)
	}
	if !strings.Contains(stdout, "implicit-left") {
		t.Fatalf("exact version's info lacks its node layout:\n%s", stdout)
	}
}

// TestConvertAllMigratesLegacy runs `lam-model convert -all` on a copy
// of the committed pre-codec registry (internal/registry's legacy
// fixture: jsonv1 model.json, meta.json without a format) with a lamb1
// version-2 version planted beside it (internal/artifact's committed
// lamb1_v2_pipeline.lamb), and checks each version is now lamb1 version
// 3 on disk, in its metadata and in `info`, with the old file gone, and
// still predicts the pinned values bit for bit.
func TestConvertAllMigratesLegacy(t *testing.T) {
	src := filepath.Join("..", "..", "internal", "registry", "testdata", "legacy")
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS(src)); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(src, "pred.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want struct {
		X    [][]float64          `json:"x"`
		Pred map[string][]float64 `json:"pred"`
	}
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	pinned := map[string]pinnedPredictions{}
	for name, pred := range want.Pred {
		pinned[name] = pinnedPredictions{X: want.X, Pred: pred}
	}
	pinned["golden-pipeline"] = plantLamb1V2(t, dir, "golden-pipeline", "pipeline")
	for _, name := range []string{"grid-hybrid", "grid-et", "golden-pipeline"} {
		stdout, stderr, exit := runCLI(t, "convert", "-registry", dir, "-name", name, "-all")
		if exit != 0 {
			t.Fatalf("convert -all %s exited %d: %s", name, exit, stderr)
		}
		if want := name + " v1: lamb1\n"; stdout != want {
			t.Fatalf("convert -all %s printed %q, want %q", name, stdout, want)
		}
		vdir := filepath.Join(dir, name, "v0001")
		if _, err := os.Stat(filepath.Join(vdir, "model.lamb")); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := os.Stat(filepath.Join(vdir, "model.json")); !os.IsNotExist(err) {
			t.Fatalf("%s: model.json still present after convert: %v", name, err)
		}
		stdout, stderr, exit = runCLI(t, "info", "-registry", dir, "-name", name, "-json")
		if exit != 0 {
			t.Fatalf("info %s exited %d: %s", name, exit, stderr)
		}
		var info struct {
			Artifact struct {
				Format  string `json:"format"`
				Version int    `json:"version"`
			} `json:"artifact"`
		}
		if err := json.Unmarshal([]byte(stdout), &info); err != nil {
			t.Fatal(err)
		}
		if info.Artifact.Format != "lamb1" || info.Artifact.Version != 3 {
			t.Fatalf("%s: info after convert reports %s version %d, want lamb1 version 3", name, info.Artifact.Format, info.Artifact.Version)
		}
		rawMeta, err := os.ReadFile(filepath.Join(vdir, "meta.json"))
		if err != nil {
			t.Fatal(err)
		}
		var meta struct {
			Format string `json:"format"`
		}
		if err := json.Unmarshal(rawMeta, &meta); err != nil {
			t.Fatal(err)
		}
		if meta.Format != "lamb1" {
			t.Fatalf("%s: meta.json format %q, want lamb1", name, meta.Format)
		}

		reg, err := registry.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		m, err := reg.Load(name, 0)
		if err != nil {
			t.Fatal(err)
		}
		pred := pinned[name].Pred
		got, err := m.PredictBatch(context.Background(), pinned[name].X)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(pred) || len(got) == 0 {
			t.Fatalf("%s: %d predictions, %d pinned", name, len(got), len(pred))
		}
		for i := range pred {
			if math.Float64bits(got[i]) != math.Float64bits(pred[i]) {
				t.Fatalf("%s row %d: %v after convert, pinned %v", name, i, got[i], pred[i])
			}
		}
	}
}

// pinnedPredictions are probe rows and a model's pinned predictions on
// them.
type pinnedPredictions struct {
	X    [][]float64 `json:"x"`
	Pred []float64   `json:"pred"`
}

// plantLamb1V2 publishes internal/artifact's committed lamb1 version-2
// artifact of one golden regressor as version 1 of name in the registry
// at dir, and returns the golden's pinned predictions.
func plantLamb1V2(t *testing.T, dir, name, golden string) pinnedPredictions {
	t.Helper()
	testdata := filepath.Join("..", "..", "internal", "artifact", "testdata")
	data, err := os.ReadFile(filepath.Join(testdata, "lamb1_v2_"+golden+".lamb"))
	if err != nil {
		t.Fatal(err)
	}
	vdir := filepath.Join(dir, name, "v0001")
	if err := os.MkdirAll(vdir, 0o755); err != nil {
		t.Fatal(err)
	}
	meta, err := json.Marshal(registry.Meta{Name: name, Version: 1, Kind: registry.KindRegressor, Format: "lamb1"})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(vdir, "meta.json"), meta, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(vdir, "model.lamb"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(testdata, "golden_"+golden+".pred.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want pinnedPredictions
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	return want
}
