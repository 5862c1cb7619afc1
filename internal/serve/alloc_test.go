package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"lam/internal/dataset"
	"lam/internal/experiments"
	"lam/internal/hybrid"
	"lam/internal/machine"
	"lam/internal/ml"
	"lam/internal/online"
	"lam/internal/registry"
	"lam/internal/workload"
)

// loadedRegressorModel publishes a trained extra-trees pipeline and
// loads it back, mirroring what the serve cache holds for a regressor
// artifact. The registry is returned too, for full-server benches.
func loadedRegressorModel(t testing.TB) (*registry.Model, [][]float64, *registry.Registry) {
	t.Helper()
	m := machine.BlueWatersXE6()
	ds, err := experiments.DatasetByName("stencil-grid", m, 42)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	train, test, err := ds.SampleFraction(0.05, rng)
	if err != nil {
		t.Fatal(err)
	}
	et := &ml.Pipeline{Model: ml.NewExtraTrees(50, 7)}
	if err := et.Fit(train.X, train.Y); err != nil {
		t.Fatal(err)
	}
	reg, err := registry.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.SaveRegressor(et, registry.Meta{Name: "grid-et"}); err != nil {
		t.Fatal(err)
	}
	lm, err := reg.Load("grid-et", 0)
	if err != nil {
		t.Fatal(err)
	}
	lm.Workers = 1
	return lm, test.X[:256], reg
}

// TestServeBatchZeroPerRowAllocations is the serve hot-path contract
// of the compiled inference plane: once the request is decoded and the
// pooled output buffer is in hand, scoring a batch through the loaded
// model performs zero allocations in steady state — the registry
// artifact decodes straight into compiled flat node tables and the
// pipeline's scaled row comes from pooled scratch.
func TestServeBatchZeroPerRowAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	lm, X, _ := loadedRegressorModel(t)
	ctx := context.Background()
	out := ml.GetScratch(len(X))
	defer ml.PutScratch(out)

	// Warm the scratch pools once.
	if err := lm.PredictBatchInto(ctx, X, *out); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if err := lm.PredictBatchInto(ctx, X, *out); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("serve batch path allocates %.1f per %d-row batch, want 0", allocs, len(X))
	}
}

// TestServeBatchZeroPerRowAllocationsOnlineEnabled re-runs the
// zero-allocation contract with the online adaptation plane attached
// and actively ingesting, and — unlike the base test — it drives the
// handler's actual serving sequence: latest-version resolution
// (srv.load), pooled output checkout, batch scoring. With the registry
// out of the racy window, resolution is two fstats and a slot load, so
// the whole sequence allocates nothing.
func TestServeBatchZeroPerRowAllocationsOnlineEnabled(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	_, X, reg := loadedRegressorModel(t)
	backdateRegistry(t, reg)
	srv := New(reg)
	srv.Workers = 1
	plane := online.New(reg, online.Config{DisableRetrain: true, Workers: 1})
	defer plane.Close()
	srv.AttachOnline(plane)

	ctx := context.Background()
	// Populate the model's observation window so the plane is in its
	// steady serving state, not a cold map.
	lm, err := srv.load(ctx, "grid-et", 0)
	if err != nil {
		t.Fatal(err)
	}
	preds := make([]float64, len(X))
	if err := lm.PredictBatchInto(ctx, X, preds); err != nil {
		t.Fatal(err)
	}
	if _, err := plane.Observe(lm, X, preds, preds); err != nil {
		t.Fatal(err)
	}

	servePath := func(rows [][]float64) float64 {
		// Warm the scratch pool at this size before measuring.
		out := ml.GetScratch(len(rows))
		ml.PutScratch(out)
		return testing.AllocsPerRun(50, func() {
			m, err := srv.load(ctx, "grid-et", 0)
			if err != nil {
				t.Fatal(err)
			}
			buf := ml.GetScratch(len(rows))
			if err := m.PredictBatchInto(ctx, rows, *buf); err != nil {
				t.Fatal(err)
			}
			ml.PutScratch(buf)
		})
	}
	for _, rows := range [][][]float64{X[:64], X} {
		if allocs := servePath(rows); allocs != 0 {
			t.Fatalf("online-enabled serve path allocates %.1f per %d-row request, want 0", allocs, len(rows))
		}
	}
}

// backdateRegistry moves the mtimes of reg's root and every name
// directory an hour into the past, out of LatestVersion's racy window,
// so resolution answers from its cache without the test sleeping.
func backdateRegistry(t testing.TB, reg *registry.Registry) {
	t.Helper()
	names, err := reg.Names()
	if err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-time.Hour)
	for _, dir := range append([]string{reg.Root()}, names...) {
		if dir != reg.Root() {
			dir = filepath.Join(reg.Root(), dir)
		}
		if err := os.Chtimes(dir, old, old); err != nil {
			t.Fatal(err)
		}
	}
}

// memWriter is an in-memory http.ResponseWriter that reuses its header
// map and body buffer, so it allocates nothing once warm: what an
// allocation test counts through it is the handler's own.
type memWriter struct {
	header http.Header
	status int
	body   []byte
}

func (w *memWriter) Header() http.Header { return w.header }
func (w *memWriter) WriteHeader(s int)   { w.status = s }
func (w *memWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	w.body = append(w.body, p...)
	return len(p), nil
}

// inProcess returns a call that pushes body through h as POST path with
// no socket underneath, reusing one request and one writer, and fails t
// on any answer but 200.
func inProcess(t testing.TB, h http.Handler, path string, body []byte) func() {
	rd := bytes.NewReader(body)
	rc := io.NopCloser(rd)
	req := httptest.NewRequest(http.MethodPost, path, nil)
	w := &memWriter{header: make(http.Header)}
	return func() {
		rd.Reset(body)
		req.Body, req.ContentLength = rc, int64(len(body))
		w.status, w.body = 0, w.body[:0]
		h.ServeHTTP(w, req)
		if w.status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", path, w.status, w.body)
		}
	}
}

// TestPredictHandlerAllocations extends the zero-per-row contract to
// the whole /predict handler, codec included: the body is scanned into
// pooled rows and the answer encoded into pooled memory, so a request
// allocates a per-request constant however many rows it carries.
func TestPredictHandlerAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	_, X, reg := loadedRegressorModel(t)
	srv := New(reg)
	srv.Workers = 1
	h := srv.Handler()
	measure := func(rows [][]float64) (objects, kB float64) {
		body, err := json.Marshal(map[string]any{"model": "grid-et", "batch": rows})
		if err != nil {
			t.Fatal(err)
		}
		call := inProcess(t, h, "/predict", body)
		for i := 0; i < 5; i++ {
			call() // warm the pools at this size
		}
		objects = testing.AllocsPerRun(50, call)
		const runs = 50
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			call()
		}
		runtime.ReadMemStats(&after)
		return objects, float64(after.TotalAlloc-before.TotalAlloc) / runs / 1e3
	}
	small, _ := measure(X[:64])
	large, largeKB := measure(append(append([][]float64(nil), X...), X...))
	t.Logf("64 rows: %.0f allocs; 512 rows: %.0f allocs, %.1f kB", small, large, largeKB)
	if large > small {
		t.Fatalf("/predict allocates per row: %.0f allocs at 64 rows vs %.0f at 512", small, large)
	}
	if largeKB > 16 {
		t.Fatalf("a 512-row /predict allocates %.1f kB, want <= 16", largeKB)
	}

	// A single row of the paper's stencil-blocking hybrid, through the
	// coalescer as lam-serve's defaults and the benchmark's replica wire
	// it, with the registry out of the racy window: the allocation
	// ceiling of a latest-version request.
	hsrv, test := stencilHybridServer(t)
	body, err := json.Marshal(map[string]any{"model": "hybrid-0", "x": test.X[0]})
	if err != nil {
		t.Fatal(err)
	}
	call := inProcess(t, hsrv.Handler(), "/predict", body)
	for i := 0; i < 5; i++ {
		call()
	}
	single := testing.AllocsPerRun(200, call)
	t.Logf("single-row hybrid: %.0f allocs", single)
	if single > maxSingleRowAllocs {
		t.Fatalf("a single-row /predict allocates %.0f, want <= %d", single, maxSingleRowAllocs)
	}
}

// maxSingleRowAllocs is the measured allocation count of a single-row
// /predict, pinned as a ceiling. None of them is the analytical model's:
// the stencil model scores a row without allocating.
const maxSingleRowAllocs = 14

// TestObserveHandlerAllocations extends the zero-per-row contract to
// /observe on the stencil-blocking hybrid with the online plane
// attached: the rows are scanned into pooled memory, scored without a
// per-row allocation and copied once into the plane's flat window, so a
// request allocates a per-request constant however many rows it
// carries, and the single-row form no more than a batch.
func TestObserveHandlerAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	srv, test := stencilHybridServer(t)
	plane := online.New(srv.reg, online.Config{DisableRetrain: true, Workers: 1})
	defer plane.Close()
	srv.AttachOnline(plane)
	h := srv.Handler()
	measure := func(req map[string]any) (objects, kB float64) {
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		call := inProcess(t, h, "/observe", body)
		for i := 0; i < 5; i++ {
			call() // warm the pools and size the window
		}
		objects = testing.AllocsPerRun(50, call)
		const runs = 50
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			call()
		}
		runtime.ReadMemStats(&after)
		return objects, float64(after.TotalAlloc-before.TotalAlloc) / runs / 1e3
	}
	batch := func(n int) (float64, float64) {
		return measure(map[string]any{"model": "hybrid-0", "batch": test.X[:n], "y_batch": test.Y[:n]})
	}
	small, smallKB := batch(32)
	large, largeKB := batch(256)
	single, singleKB := measure(map[string]any{"model": "hybrid-0", "x": test.X[0], "y": test.Y[0]})
	t.Logf("/observe: 32 rows %.0f allocs %.2f kB, 256 rows %.0f allocs %.2f kB, single row %.0f allocs %.2f kB",
		small, smallKB, large, largeKB, single, singleKB)
	if large != small {
		t.Fatalf("/observe allocates per row: %.0f allocs at 32 rows vs %.0f at 256", small, large)
	}
	if single > small {
		t.Fatalf("a single-row /observe allocates %.0f, more than a 32-row batch's %.0f", single, small)
	}
	if small > maxObserveAllocs {
		t.Fatalf("an /observe allocates %.0f, want <= %d", small, maxObserveAllocs)
	}
}

// maxObserveAllocs is the measured allocation count of a batched
// /observe on the stencil hybrid, pinned as a ceiling.
const maxObserveAllocs = 13

// stencilHybridServer publishes a hybrid trained on a 4% sample of the
// stencil-blocking dataset and returns a server over it, wired with
// coalescing at 32 rows and admission unbounded, plus the held-out rows.
func stencilHybridServer(t testing.TB) (*Server, *dataset.Dataset) {
	t.Helper()
	bw := machine.BlueWatersXE6()
	w, err := workload.Lookup("stencil-blocking")
	if err != nil {
		t.Fatal(err)
	}
	ds, err := w.Dataset(bw, 42)
	if err != nil {
		t.Fatal(err)
	}
	train, test, err := ds.SampleFraction(0.04, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	hy, err := hybrid.TrainCtx(context.Background(), train, w.AM(bw), hybrid.Config{
		Seed:  1,
		NewML: func() ml.Regressor { return &ml.Pipeline{Model: ml.NewExtraTrees(20, 1)} },
	})
	if err != nil {
		t.Fatal(err)
	}
	reg, err := registry.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.SaveHybrid(hy, registry.Meta{Name: "hybrid-0", Workload: "stencil-blocking", Machine: "bluewaters"}); err != nil {
		t.Fatal(err)
	}
	backdateRegistry(t, reg)
	srv := New(reg)
	srv.Coalesce = CoalesceConfig{MaxBatch: 32}
	srv.Admit = AdmitConfig{MaxInflight: 0, Queue: 64}
	return srv, test
}

// BenchmarkServePredictBatch is the serve-side half of the compiled
// plane's before/after pairs: one /predict-equivalent batch scored
// through the loaded registry model into a pooled buffer (the handler
// path minus HTTP codec). Pair it with
// BenchmarkForestPredictBatch/recursive in internal/ml for the
// pre-refactor traversal cost.
func BenchmarkServePredictBatch(b *testing.B) {
	lm, X, _ := loadedRegressorModel(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := ml.GetScratch(len(X))
		if err := lm.PredictBatchInto(ctx, X, *out); err != nil {
			b.Fatal(err)
		}
		ml.PutScratch(out)
	}
}

// BenchmarkServeRoundTrip measures the whole /predict batch round trip
// — HTTP, JSON codec both ways, pooled buffers, compiled batch scoring
// — for a 256-row request against a live test server.
func BenchmarkServeRoundTrip(b *testing.B) {
	_, X, reg := loadedRegressorModel(b)
	srv := New(reg)
	srv.Workers = 1
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body, err := json.Marshal(map[string]any{"model": "grid-et", "batch": X})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(ts.URL+"/predict", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
}
