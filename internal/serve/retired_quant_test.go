package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lam/internal/ml"
	"lam/internal/registry"
)

// plantVersion writes raw artifact bytes as model.lamb of name@version
// in the registry at root, with metadata saying it is a lamb1 regressor.
func plantVersion(t *testing.T, root, name string, version int, data []byte) {
	t.Helper()
	dir := filepath.Join(root, name, fmt.Sprintf("v%04d", version))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	meta, err := json.Marshal(registry.Meta{Name: name, Version: version, Kind: registry.KindRegressor, Format: "lamb1"})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "meta.json"), meta, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "model.lamb"), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestRetiredQuantVersionServedAsCorrupt: a /predict that resolves to a
// retired quantised version, or to a retired estimator kind, gets the
// status any undecodable artifact gets, with an error that names what
// was retired, and the exact versions of the same model keep serving
// bit-identically.
func TestRetiredQuantVersionServedAsCorrupt(t *testing.T) {
	X := make([][]float64, 120)
	y := make([]float64, 120)
	for i := range X {
		X[i] = []float64{float64(i % 13), float64(i % 7), float64(i % 3)}
		y[i] = 2*X[i][0] - X[i][1] + 0.5*X[i][2]
	}
	f := ml.NewExtraTrees(8, 3)
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
	quant, err := os.ReadFile(filepath.Join("..", "artifact", "testdata", "retired_quant16_forest.lamb"))
	if err != nil {
		t.Fatal(err)
	}
	plantVersion(t, dir, "m", 2, quant)
	knn, err := os.ReadFile(filepath.Join("..", "artifact", "testdata", "lamb1_v1_knn.lamb"))
	if err != nil {
		t.Fatal(err)
	}
	plantVersion(t, dir, "m", 3, knn)
	plantVersion(t, dir, "garbage", 1, quant[:len(quant)/2])

	ts := httptest.NewServer(New(reg).Handler())
	t.Cleanup(ts.Close)

	garbage, _ := postPredict(t, ts.URL, map[string]any{"model": "garbage", "x": X[0]})
	if garbage.StatusCode == http.StatusOK {
		t.Fatal("a truncated artifact was served")
	}
	for range 2 { // a refused load must not poison the caches
		for _, c := range []struct {
			version int
			want    string
		}{{0, "knn"}, {2, "quantized"}, {3, "knn"}} { // latest is the knn copy
			resp, body := postPredict(t, ts.URL, map[string]any{"model": "m", "version": c.version, "x": X[0]})
			if resp.StatusCode != garbage.StatusCode {
				t.Fatalf("version %d: status %d, want %d (any undecodable artifact): %s", c.version, resp.StatusCode, garbage.StatusCode, body)
			}
			if !strings.Contains(string(body), c.want) {
				t.Fatalf("version %d: error body %s does not name %s", c.version, body, c.want)
			}
		}
		resp, body := postPredict(t, ts.URL, map[string]any{"model": "m", "version": 1, "batch": X})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("exact version: status %d: %s", resp.StatusCode, body)
		}
		var out predictOut
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		if out.Version != 1 || len(out.YBatch) != len(X) {
			t.Fatalf("exact version answered v%d with %d rows", out.Version, len(out.YBatch))
		}
		for i, x := range X {
			if out.YBatch[i] != f.Predict(x) {
				t.Fatalf("row %d: served %v != library %v", i, out.YBatch[i], f.Predict(x))
			}
		}
	}
}
