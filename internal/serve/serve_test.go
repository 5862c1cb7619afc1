package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"lam/internal/experiments"
	"lam/internal/hybrid"
	"lam/internal/machine"
	"lam/internal/ml"
	"lam/internal/registry"
)

// newTestServer builds a registry in a temp dir holding one trained
// hybrid model and one regressor, and returns the running test server
// plus the models and a held-out matrix.
func newTestServer(t *testing.T) (*httptest.Server, *hybrid.Model, ml.Regressor, [][]float64) {
	t.Helper()
	m := machine.BlueWatersXE6()
	ds, err := experiments.DatasetByName("stencil-grid", m, 42)
	if err != nil {
		t.Fatal(err)
	}
	am, err := experiments.AMByDataset("stencil-grid", m)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	train, test, err := ds.SampleFraction(0.02, rng)
	if err != nil {
		t.Fatal(err)
	}
	hy, err := hybrid.TrainCtx(context.Background(), train, am, hybrid.Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	et := &ml.Pipeline{Model: ml.NewExtraTrees(25, 7)}
	if err := et.Fit(train.X, train.Y); err != nil {
		t.Fatal(err)
	}

	reg, err := registry.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.SaveHybrid(hy, registry.Meta{
		Name: "grid-hybrid", Workload: "stencil-grid", Machine: "bluewaters",
		TrainSize: train.Len(),
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.SaveRegressor(et, registry.Meta{Name: "grid-et"}); err != nil {
		t.Fatal(err)
	}

	ts := httptest.NewServer(New(reg).Handler())
	t.Cleanup(ts.Close)
	return ts, hy, et, test.X[:32]
}

func postPredict(t *testing.T, url string, req any) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

type predictOut struct {
	Model   string    `json:"model"`
	Version int       `json:"version"`
	Y       *float64  `json:"y"`
	YBatch  []float64 `json:"y_batch"`
}

// TestBatchPredictBitIdentical is the acceptance check: a batched
// /predict answer from a registry-loaded model equals the library call
// bit for bit.
func TestBatchPredictBitIdentical(t *testing.T) {
	ts, hy, et, X := newTestServer(t)

	want := make([]float64, len(X))
	if err := hy.PredictBatchIntoCtx(context.Background(), X, want, 0); err != nil {
		t.Fatal(err)
	}
	resp, body := postPredict(t, ts.URL, map[string]any{"model": "grid-hybrid", "batch": X})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out predictOut
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("decoding %s: %v", body, err)
	}
	if out.Model != "grid-hybrid" || out.Version != 1 {
		t.Fatalf("echoed identity %s v%d", out.Model, out.Version)
	}
	if len(out.YBatch) != len(want) {
		t.Fatalf("got %d predictions, want %d", len(out.YBatch), len(want))
	}
	for i := range want {
		if out.YBatch[i] != want[i] {
			t.Fatalf("row %d: served %v != library %v", i, out.YBatch[i], want[i])
		}
	}

	// Regressor path too.
	wantET := make([]float64, len(X))
	if err := ml.PredictBatchIntoCtx(context.Background(), et, X, wantET, 0); err != nil {
		t.Fatal(err)
	}
	resp, body = postPredict(t, ts.URL, map[string]any{"model": "grid-et", "batch": X})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	out = predictOut{}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	for i := range wantET {
		if out.YBatch[i] != wantET[i] {
			t.Fatalf("et row %d: served %v != library %v", i, out.YBatch[i], wantET[i])
		}
	}
}

// TestSinglePredict checks the single-vector shape.
func TestSinglePredict(t *testing.T) {
	ts, hy, _, X := newTestServer(t)
	want, err := hy.Predict(X[0])
	if err != nil {
		t.Fatal(err)
	}
	resp, body := postPredict(t, ts.URL, map[string]any{"model": "grid-hybrid", "x": X[0]})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out predictOut
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Y == nil || *out.Y != want {
		t.Fatalf("served %v, want %v", out.Y, want)
	}
}

// TestErrorMapping checks status codes for the typed failure classes.
func TestErrorMapping(t *testing.T) {
	ts, _, _, X := newTestServer(t)
	cases := []struct {
		name   string
		req    any
		status int
	}{
		{"unknown model", map[string]any{"model": "nope", "x": X[0]}, http.StatusNotFound},
		{"path-shaped model name", map[string]any{"model": "../../etc", "x": X[0]}, http.StatusNotFound},
		{"unknown version", map[string]any{"model": "grid-hybrid", "version": 99, "x": X[0]}, http.StatusNotFound},
		{"missing model", map[string]any{"x": X[0]}, http.StatusBadRequest},
		{"both x and batch", map[string]any{"model": "grid-hybrid", "x": X[0], "batch": X}, http.StatusBadRequest},
		{"neither x nor batch", map[string]any{"model": "grid-hybrid"}, http.StatusBadRequest},
		{"wrong arity", map[string]any{"model": "grid-hybrid", "x": []float64{1}}, http.StatusBadRequest},
		{"wrong arity regressor", map[string]any{"model": "grid-et", "x": []float64{1}}, http.StatusBadRequest},
		{"unknown field", map[string]any{"model": "grid-hybrid", "x": X[0], "bogus": 1}, http.StatusBadRequest},
		// Arity is right but the analytical model rejects the values:
		// the client's fault, not a 500.
		{"model-rejected values", map[string]any{"model": "grid-hybrid", "x": []float64{-1, 240, 160}}, http.StatusBadRequest},
	}
	for _, c := range cases {
		resp, body := postPredict(t, ts.URL, c.req)
		if resp.StatusCode != c.status {
			t.Errorf("%s: status %d (%s), want %d", c.name, resp.StatusCode, body, c.status)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Errorf("%s: body %s is not a JSON error", c.name, body)
		}
	}
}

// TestHealthzAndModels checks the observability endpoints.
func TestHealthzAndModels(t *testing.T) {
	ts, _, _, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h struct {
		Status string `json:"status"`
		Models int    `json:"models"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || h.Status != "ok" || h.Models != 2 {
		t.Fatalf("healthz: %d %+v", resp.StatusCode, h)
	}

	resp2, err := http.Get(ts.URL + "/models")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var ms struct {
		Models []registry.Meta `json:"models"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&ms); err != nil {
		t.Fatal(err)
	}
	if len(ms.Models) != 2 {
		t.Fatalf("models: %+v", ms.Models)
	}
	for _, m := range ms.Models {
		if m.CreatedAt.IsZero() || m.Kind == "" {
			t.Fatalf("incomplete metadata: %+v", m)
		}
	}
}

// TestReadyz covers the readiness lifecycle: a replica with pending
// warm names answers 503 "warming" (while /healthz already says ok),
// and flips to 200 "ready" once Warm has loaded them.
func TestReadyz(t *testing.T) {
	reg, err := registry.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	et := &ml.Pipeline{Model: ml.NewExtraTrees(5, 7)}
	if err := et.Fit([][]float64{{1, 2}, {3, 4}, {5, 6}}, []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.SaveRegressor(et, registry.Meta{Name: "warm-me"}); err != nil {
		t.Fatal(err)
	}
	s := New(reg)
	s.WarmNames = []string{"warm-me"}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	getReadyz := func() (int, readyzResponse) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var r readyzResponse
		if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, r
	}

	code, r := getReadyz()
	if code != http.StatusServiceUnavailable || r.Status != "warming" {
		t.Fatalf("cold readyz: %d %+v, want 503 warming", code, r)
	}
	if len(r.Warming) != 1 || r.Warming[0] != "warm-me" {
		t.Fatalf("cold readyz warming list: %+v", r.Warming)
	}
	// Liveness is already fine while readiness is not.
	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusOK {
		t.Fatalf("healthz during warming: %d, want 200", hz.StatusCode)
	}

	if err := s.Warm(); err != nil {
		t.Fatal(err)
	}
	code, r = getReadyz()
	if code != http.StatusOK || r.Status != "ready" || r.Models != 1 {
		t.Fatalf("warm readyz: %d %+v, want 200 ready", code, r)
	}
}

// TestCacheEviction republishes a model several times and checks the
// server retains at most keepVersionsPerName deserialized versions.
func TestCacheEviction(t *testing.T) {
	m := machine.BlueWatersXE6()
	ds, err := experiments.DatasetByName("stencil-grid", m, 42)
	if err != nil {
		t.Fatal(err)
	}
	am, err := experiments.AMByDataset("stencil-grid", m)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	train, test, err := ds.SampleFraction(0.02, rng)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := registry.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	hy, err := hybrid.TrainCtx(context.Background(), train, am, hybrid.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(reg)
	meta := registry.Meta{Name: "m", Workload: "stencil-grid", Machine: "bluewaters"}
	for i := 0; i < 5; i++ {
		if _, err := reg.SaveHybrid(hy, meta); err != nil {
			t.Fatal(err)
		}
		// Latest resolution rides the hot-swap pointer, not the pinned
		// cache — it must still track each publish.
		lm, err := srv.load(context.Background(), "m", 0)
		if err != nil {
			t.Fatal(err)
		}
		if lm.Meta.Version != i+1 {
			t.Fatalf("publish %d served v%d", i+1, lm.Meta.Version)
		}
	}
	// Pinning the version the hot pointer serves must reuse its
	// instance, not deserialize a second copy.
	latest, err := srv.load(context.Background(), "m", 0)
	if err != nil {
		t.Fatal(err)
	}
	pinnedLatest, err := srv.load(context.Background(), "m", 5)
	if err != nil {
		t.Fatal(err)
	}
	if pinnedLatest != latest {
		t.Fatal("pin of the current latest loaded a duplicate instance")
	}
	// Pin the superseded versions: this is the path the bounded cache
	// serves and evicts.
	for v := 1; v <= 4; v++ {
		if _, err := srv.load(context.Background(), "m", v); err != nil {
			t.Fatal(err)
		}
	}
	srv.models.mu.RLock()
	cached := len(srv.models.pins)
	srv.models.mu.RUnlock()
	if cached > keepVersionsPerName {
		t.Fatalf("cache holds %d versions, want <= %d", cached, keepVersionsPerName)
	}
	if ev := srv.Metrics.ModelCacheEvictions.Load(); ev < 2 {
		t.Fatalf("evicted %d pinned versions, want >= 2", ev)
	}
	// Pinned old versions still load correctly (just uncached).
	lm, err := srv.load(context.Background(), "m", 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := hy.Predict(test.X[0])
	if err != nil {
		t.Fatal(err)
	}
	got, err := lm.Predict(context.Background(), test.X[0])
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("pinned v1 predicts %v, want %v", got, want)
	}
}

// TestLatestResolution saves a second version and checks version 0
// resolves to it without restarting the server.
func TestLatestResolution(t *testing.T) {
	m := machine.BlueWatersXE6()
	ds, err := experiments.DatasetByName("stencil-grid", m, 42)
	if err != nil {
		t.Fatal(err)
	}
	am, err := experiments.AMByDataset("stencil-grid", m)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	train, test, err := ds.SampleFraction(0.02, rng)
	if err != nil {
		t.Fatal(err)
	}
	hy1, err := hybrid.TrainCtx(context.Background(), train, am, hybrid.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	reg, err := registry.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	meta := registry.Meta{Name: "m", Workload: "stencil-grid", Machine: "bluewaters"}
	if _, err := reg.SaveHybrid(hy1, meta); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(reg).Handler())
	defer ts.Close()

	x := test.X[0]
	resp, body := postPredict(t, ts.URL, map[string]any{"model": "m", "x": x})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out predictOut
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Version != 1 {
		t.Fatalf("first predict served v%d", out.Version)
	}

	hy2, err := hybrid.TrainCtx(context.Background(), train, am, hybrid.Config{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.SaveHybrid(hy2, meta); err != nil {
		t.Fatal(err)
	}
	resp, body = postPredict(t, ts.URL, map[string]any{"model": "m", "x": x})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	out = predictOut{}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Version != 2 {
		t.Fatalf("post-save predict served v%d, want 2", out.Version)
	}
	want, err := hy2.Predict(x)
	if err != nil {
		t.Fatal(err)
	}
	if out.Y == nil || *out.Y != want {
		t.Fatalf("served %v, want v2 prediction %v", out.Y, want)
	}
}
