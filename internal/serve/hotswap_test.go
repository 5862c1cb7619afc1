package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"lam/internal/dataset"
	"lam/internal/experiments"
	"lam/internal/hybrid"
	"lam/internal/machine"
	"lam/internal/online"
	"lam/internal/registry"
)

// TestHotSwapMidPredictStream publishes a new version while a fleet of
// clients hammers /predict: every response must be OK and bit-identical
// to one of the two models — never an error, never a blend — and each
// client's served version must be monotone non-decreasing (the atomic
// pointer can only move forward).
func TestHotSwapMidPredictStream(t *testing.T) {
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
	hy2, err := hybrid.TrainCtx(context.Background(), train, am, hybrid.Config{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	x := test.X[0]
	want1, err := hy1.Predict(x)
	if err != nil {
		t.Fatal(err)
	}
	want2, err := hy2.Predict(x)
	if err != nil {
		t.Fatal(err)
	}
	if want1 == want2 {
		t.Fatal("fixture models agree; the test cannot tell versions apart")
	}

	reg, err := registry.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	meta := registry.Meta{Name: "m", Workload: "stencil-grid", Machine: "bluewaters"}
	if _, err := reg.SaveHybrid(hy1, meta); err != nil {
		t.Fatal(err)
	}
	srv := New(reg)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const clients = 8
	const perClient = 40
	published := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	sawNew := make(chan int, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			lastVersion := 0
			newSeen := 0
			for i := 0; i < perClient; i++ {
				if i == perClient/4 && c == 0 {
					// One client gates the publish so roughly three
					// quarters of the traffic brackets the swap.
					if _, err := reg.SaveHybrid(hy2, meta); err != nil {
						errs <- err
						return
					}
					close(published)
				}
				resp, body := postPredict(t, ts.URL, map[string]any{"model": "m", "x": x})
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("client %d request %d: status %d (%s)", c, i, resp.StatusCode, body)
					return
				}
				var out predictOut
				if err := json.Unmarshal(body, &out); err != nil {
					errs <- err
					return
				}
				if out.Version < lastVersion {
					errs <- fmt.Errorf("client %d: served version moved backwards %d -> %d", c, lastVersion, out.Version)
					return
				}
				lastVersion = out.Version
				want := want1
				if out.Version == 2 {
					want = want2
					newSeen++
				}
				if out.Y == nil || *out.Y != want {
					errs <- fmt.Errorf("client %d: v%d served %v, want bit-identical %v", c, out.Version, out.Y, want)
					return
				}
			}
			sawNew <- newSeen
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	<-published
	// The swap must actually have landed for later traffic.
	resp, body := postPredict(t, ts.URL, map[string]any{"model": "m", "x": x})
	var out predictOut
	if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &out) != nil || out.Version != 2 {
		t.Fatalf("post-stream request served %s", body)
	}
	close(sawNew)
	total := 0
	for n := range sawNew {
		total += n
	}
	if total == 0 {
		t.Fatal("no client observed the new version mid-stream")
	}
}

// TestObserveEndToEndDrift is the acceptance run for the online plane,
// over real HTTP: a hybrid trained on the source machine serves
// predictions; hardware-transfer observations (same workload measured
// on a different machine) are replayed through POST /observe; the
// drift detector trips; the background retrain merges the window with
// the original training set and publishes v2; the server hot-swaps
// mid-stream with zero failed requests; and the post-swap windowed
// MAPE is measurably below the pre-swap window.
func TestObserveEndToEndDrift(t *testing.T) {
	sc, err := experiments.DriftScenarioCtx(context.Background(), "stencil-blocking", "bluewaters", "xeon", 0.02, 42)
	if err != nil {
		t.Fatal(err)
	}
	hy, err := hybrid.TrainCtx(context.Background(), sc.Train, sc.AM, hybrid.Config{Seed: 7, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := hy.MAPE(sc.SourceTest)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := registry.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.SaveHybrid(hy, registry.Meta{
		Name: "blk", Workload: sc.Workload, Machine: sc.SourceName,
		TrainSize: sc.Train.Len(), TestMAPE: baseline,
	}); err != nil {
		t.Fatal(err)
	}

	srv := New(reg)
	srv.Workers = 1
	plane := online.New(reg, online.Config{
		WindowSize: 256,
		// The later the detector may trip, the more target-machine
		// samples the retrain gets to merge — the blocking space needs
		// a couple hundred to adapt decisively.
		Detector: online.DetectorConfig{MinSamples: 192},
		BaseData: func(meta registry.Meta) (*dataset.Dataset, error) {
			return sc.Train, nil
		},
		Seed:    7,
		Workers: 1,
	})
	defer plane.Close()
	srv.AttachOnline(plane)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	type driftView struct {
		Version int           `json:"version"`
		Drift   online.Status `json:"drift"`
	}
	postObserve := func(lo, hi int) driftView {
		t.Helper()
		resp, body := postJSON(t, ts.URL+"/observe", map[string]any{
			"model": "blk", "batch": sc.Stream.X[lo:hi], "y_batch": sc.Stream.Y[lo:hi],
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/observe [%d:%d]: status %d (%s)", lo, hi, resp.StatusCode, body)
		}
		var v driftView
		if err := json.Unmarshal(body, &v); err != nil {
			t.Fatalf("decoding %s: %v", body, err)
		}
		return v
	}

	drift := func() online.Status {
		t.Helper()
		resp, err := http.Get(ts.URL + "/models/blk/drift")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st online.Status
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st
	}

	const batch = 32
	swapped := false
	var preSwap, postSwap float64
	deadline := time.Now().Add(2 * time.Minute)
	sent := 0
	for ; sent+batch <= sc.Stream.Len(); sent += batch {
		if time.Now().After(deadline) {
			t.Fatal("stream deadline exceeded")
		}
		v := postObserve(sent, sent+batch)
		// Interleave a /predict on every batch: the prediction path
		// must never fail, before, during or after the swap.
		resp, body := postPredict(t, ts.URL, map[string]any{"model": "blk", "x": sc.Stream.X[sent]})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/predict during stream: status %d (%s)", resp.StatusCode, body)
		}
		if !swapped && v.Version >= 2 {
			swapped = true
			preSwap = v.Drift.PreSwapMAPE
			if preSwap <= 0 {
				t.Fatalf("swap landed without a recorded pre-swap MAPE: %+v", v.Drift)
			}
		}
		if swapped && v.Drift.Window.Count >= 128 {
			postSwap = v.Drift.Window.MAPE
			sent += batch
			break
		}
		// Hold the stream while the background retrain runs, so the
		// publish lands at the batch that tripped the detector, not
		// wherever a slow host lets it: the windows either side of the
		// swap are then the same stream rows on every run.
		for v.Drift.Retraining {
			if time.Now().After(deadline) {
				t.Fatal("stream deadline exceeded waiting for the retrain")
			}
			time.Sleep(time.Millisecond)
			v.Drift = drift()
		}
	}
	if !swapped {
		t.Fatalf("no hot swap within %d observations", sent)
	}
	if postSwap == 0 {
		t.Fatal("stream ended before the post-swap window filled")
	}
	// "Measurably lower", not just nominally: the post-swap window must
	// shed at least 40% of the pre-swap error and at least 10 MAPE
	// points. (Empirically ~68% -> ~35% on this fixture; the margin
	// leaves room for seed drift without letting a non-adaptation pass.)
	if postSwap >= 0.6*preSwap || postSwap >= preSwap-10 {
		t.Fatalf("adaptation too weak: pre-swap windowed MAPE %.2f%%, post-swap %.2f%%", preSwap, postSwap)
	}
	t.Logf("windowed MAPE pre-swap %.2f%% -> post-swap %.2f%% (baseline %.2f%%)", preSwap, postSwap, baseline)

	// The drift endpoint reports the adapted state.
	st := drift()
	if st.Model != "blk" || st.Version < 2 {
		t.Fatalf("drift endpoint reports %+v", st)
	}
	if st.LastPublished == nil || st.LastPublished.Version < 2 {
		t.Fatalf("drift endpoint lacks publish provenance: %+v", st)
	}
	if st.RetrainsPublished < 1 || st.Trips < 1 {
		t.Fatalf("counters inconsistent: %+v", st)
	}

	// The registry carries the retrained artifact with provenance.
	m2, err := reg.Load("blk", 0)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Meta.Version < 2 || m2.Meta.Notes == "" || m2.Meta.TestMAPE <= 0 {
		t.Fatalf("retrained meta: %+v", m2.Meta)
	}
}

// TestObserveValidation exercises the ingest endpoint's error paths.
func TestObserveValidation(t *testing.T) {
	ts, _, _, X := newOnlineTestServer(t)
	y := 0.5
	cases := []struct {
		name   string
		req    any
		status int
	}{
		{"missing model", map[string]any{"x": X[0], "y": y}, http.StatusBadRequest},
		{"unknown model", map[string]any{"model": "nope", "x": X[0], "y": y}, http.StatusNotFound},
		{"x without y", map[string]any{"model": "grid-hybrid", "x": X[0]}, http.StatusBadRequest},
		{"both shapes", map[string]any{"model": "grid-hybrid", "x": X[0], "y": y, "batch": X, "y_batch": []float64{1}}, http.StatusBadRequest},
		{"length mismatch", map[string]any{"model": "grid-hybrid", "batch": X[:2], "y_batch": []float64{1}}, http.StatusBadRequest},
		{"non-finite observation", map[string]any{"model": "grid-hybrid", "x": X[0], "y": "NaN"}, http.StatusBadRequest},
		{"wrong arity", map[string]any{"model": "grid-hybrid", "x": []float64{1}, "y": y}, http.StatusBadRequest},
	}
	for _, c := range cases {
		resp, body := postJSON(t, ts.URL+"/observe", c.req)
		if resp.StatusCode != c.status {
			t.Errorf("%s: status %d (%s), want %d", c.name, resp.StatusCode, body, c.status)
		}
	}
	// A valid single observation lands in the window.
	resp, body := postJSON(t, ts.URL+"/observe", map[string]any{"model": "grid-hybrid", "x": X[0], "y": y})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("valid observe: status %d (%s)", resp.StatusCode, body)
	}
	var out struct {
		Ingested int           `json:"ingested"`
		Drift    online.Status `json:"drift"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Ingested != 1 || out.Drift.Window.Count != 1 {
		t.Fatalf("observe response %+v", out)
	}
}

// TestMetricsEndpoint drives a little traffic and checks the counter
// dump.
func TestMetricsEndpoint(t *testing.T) {
	ts, _, _, X := newOnlineTestServer(t)
	for i := 0; i < 3; i++ {
		resp, body := postPredict(t, ts.URL, map[string]any{"model": "grid-hybrid", "batch": X})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("predict: %d (%s)", resp.StatusCode, body)
		}
	}
	resp, body := postPredict(t, ts.URL, map[string]any{"model": "nope", "x": X[0]})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("expected 404, got %d (%s)", resp.StatusCode, body)
	}
	obs, body := postJSON(t, ts.URL+"/observe", map[string]any{"model": "grid-hybrid", "x": X[0], "y": 0.5})
	if obs.StatusCode != http.StatusOK {
		t.Fatalf("observe: %d (%s)", obs.StatusCode, body)
	}

	exp, err := scrapeStrict(t, ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"lam_predict_requests_total":       4,
		"lam_predict_batch_requests_total": 3,
		"lam_predict_rows_total":           float64(3 * len(X)),
		"lam_predict_errors_total":         1,
		"lam_observe_requests_total":       1,
		"lam_observe_rows_total":           1,
		"lam_online_observations_total":    1,
	}
	for name, v := range want {
		f := exp.Family(name)
		if f == nil || len(f.Samples) == 0 {
			t.Errorf("family %s missing", name)
			continue
		}
		if got := f.Samples[0].Value; got != v {
			t.Errorf("%s = %v, want %v", name, got, v)
		}
	}
	if f := exp.Family("lam_predict_latency_seconds"); f == nil || f.Type != "histogram" {
		t.Errorf("predict latency histogram missing: %+v", f)
	}
}

// newOnlineTestServer is newTestServer with an attached (quiet) online
// plane: big window, automatic retraining disabled, so tests can poke
// the endpoints without background churn.
func newOnlineTestServer(t *testing.T) (*httptest.Server, *Server, *online.Plane, [][]float64) {
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
	reg, err := registry.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.SaveHybrid(hy, registry.Meta{
		Name: "grid-hybrid", Workload: "stencil-grid", Machine: "bluewaters",
		TrainSize: train.Len(), TestMAPE: 10,
	}); err != nil {
		t.Fatal(err)
	}
	srv := New(reg)
	plane := online.New(reg, online.Config{DisableRetrain: true, Seed: 1, Workers: 1})
	t.Cleanup(plane.Close)
	srv.AttachOnline(plane)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, srv, plane, test.X[:8]
}

func postJSON(t *testing.T, url string, req any) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}
