package serve

import (
	"context"
	"encoding/json"
	"math"
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
	"lam/internal/ml"
	"lam/internal/online"
	"lam/internal/registry"
	"lam/internal/rollout"
)

// newRolloutFixture trains a good extra-trees v1 of "grid-et" into a
// registry at dir and returns a miscalibrated challenger trained on labels scaled 3x (a
// model that looks great against equally miscalibrated observations
// and terrible against the truth). The challenger is returned
// unpublished so each test controls when the rollout begins.
func newRolloutFixture(t *testing.T, dir string) (*registry.Registry, *ml.Pipeline, *dataset.Dataset, *dataset.Dataset) {
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
	good := &ml.Pipeline{Model: ml.NewExtraTrees(50, 7)}
	if err := good.Fit(train.X, train.Y); err != nil {
		t.Fatal(err)
	}
	reg, err := registry.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.SaveRegressor(good, registry.Meta{Name: "grid-et"}); err != nil {
		t.Fatal(err)
	}
	scaled := make([]float64, len(train.Y))
	for i, y := range train.Y {
		scaled[i] = 3 * y
	}
	bad := &ml.Pipeline{Model: ml.NewExtraTrees(50, 9)}
	if err := bad.Fit(train.X, scaled); err != nil {
		t.Fatal(err)
	}
	return reg, bad, train, test
}

// newRolloutServer wires a serve stack (online plane with retraining
// off and a 64-sample window, rollout controller with the given policy
// gating on the plane's ledger) over reg.
func newRolloutServer(t *testing.T, reg *registry.Registry, cfg rollout.Config) (*httptest.Server, *Server, *rollout.Controller) {
	t.Helper()
	srv := New(reg)
	srv.Workers = 1
	plane := online.New(reg, online.Config{DisableRetrain: true, WindowSize: 64, Workers: 1})
	t.Cleanup(plane.Close)
	srv.AttachOnline(plane)
	ctrl := rollout.New(reg, plane.Ledger(), cfg)
	srv.AttachRollout(ctrl)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, srv, ctrl
}

// observeOut mirrors the /observe response envelope.
type observeOut struct {
	Version  int             `json:"version"`
	Ingested int             `json:"ingested"`
	Drift    online.Status   `json:"drift"`
	Rollout  *rollout.Status `json:"rollout"`
}

func postObserveBatch(t *testing.T, base string, model string, X [][]float64, Y []float64) observeOut {
	t.Helper()
	resp, body := postJSON(t, base+"/observe", map[string]any{
		"model": model, "batch": X, "y_batch": Y,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/observe: status %d (%s)", resp.StatusCode, body)
	}
	var out observeOut
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("decoding %s: %v", body, err)
	}
	return out
}

func getRolloutStatus(t *testing.T, base, model string) rollout.Status {
	t.Helper()
	resp, err := http.Get(base + "/models/" + model + "/rollout")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET rollout: status %d", resp.StatusCode)
	}
	var st rollout.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func postRolloutAction(t *testing.T, base, model, action string) *http.Response {
	t.Helper()
	resp, _ := postJSON(t, base+"/models/"+model+"/rollout", map[string]any{"action": action})
	return resp
}

// predictVersion runs one single-row /predict and returns the serving
// version from the response envelope.
func predictVersion(t *testing.T, base string, model string, x []float64) int {
	t.Helper()
	resp, body := postPredict(t, base, map[string]any{"model": model, "x": x})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/predict: status %d (%s)", resp.StatusCode, body)
	}
	var out predictOut
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	return out.Version
}

// TestCanaryPromotesBetterModel is the progressive-delivery acceptance
// run, end to end over HTTP: the hardware-transfer drift stream trips
// the detector and publishes a retrained v2; instead of hot-swapping,
// v2 shadow-scores, walks every canary stage, and is promoted on
// merit; and the post-promotion windowed MAPE is well below the
// pre-swap window (same bar as the direct hot-swap acceptance test).
func TestCanaryPromotesBetterModel(t *testing.T) {
	sc, err := experiments.DriftScenarioCtx(context.Background(), "stencil-blocking", "bluewaters", "xeon", 0.02, 42)
	if err != nil {
		t.Fatal(err)
	}
	hy, err := hybrid.TrainCtx(context.Background(), sc.Train, sc.AM, hybrid.Config{Seed: 7, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	reg, err := registry.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.SaveHybrid(hy, registry.Meta{
		Name: "blk", Workload: sc.Workload, Machine: sc.SourceName,
		TrainSize: sc.Train.Len(),
	}); err != nil {
		t.Fatal(err)
	}

	srv := New(reg)
	srv.Workers = 1
	plane := online.New(reg, online.Config{
		WindowSize: 256,
		Detector:   online.DetectorConfig{MinSamples: 192},
		BaseData: func(meta registry.Meta) (*dataset.Dataset, error) {
			return sc.Train, nil
		},
		Seed:    7,
		Workers: 1,
	})
	defer plane.Close()
	srv.AttachOnline(plane)
	stages := []float64{0.25, 0.5, 1.0}
	ctrl := rollout.New(reg, plane.Ledger(), rollout.Config{
		Stages:        stages,
		ShadowSamples: 48,
		StageSamples:  24,
		PromoteRatio:  0.95,
	})
	srv.AttachRollout(ctrl)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const batch = 32
	span := sc.Stream.Len() - batch
	stagesSeen := map[int]bool{}
	sawShadow := false
	var preSwap, postSwap float64
	promoted := false
	deadline := time.Now().Add(3 * time.Minute)
	for sent := 0; ; sent += batch {
		if time.Now().After(deadline) {
			t.Fatalf("deadline exceeded: shadow=%v stages=%v promoted=%v", sawShadow, stagesSeen, promoted)
		}
		// The stream wraps: the stage walk plus the post-promotion
		// window needs more target-machine rows than one pass holds.
		lo := sent % span
		v := postObserveBatch(t, ts.URL, "blk", sc.Stream.X[lo:lo+batch], sc.Stream.Y[lo:lo+batch])
		// The prediction path must never fail, in any phase.
		if resp, body := postPredict(t, ts.URL, map[string]any{"model": "blk", "x": sc.Stream.X[lo]}); resp.StatusCode != http.StatusOK {
			t.Fatalf("/predict during rollout: status %d (%s)", resp.StatusCode, body)
		}
		if v.Rollout != nil && v.Rollout.Phase != "idle" {
			// While the rollout runs, "latest" stays pinned to the
			// incumbent — the candidate must never swap in early.
			if v.Version != 1 {
				t.Fatalf("observe served v%d while rollout active (pin broken)", v.Version)
			}
			if preSwap == 0 {
				preSwap = v.Drift.PreSwapMAPE
				if preSwap <= 0 {
					t.Fatalf("rollout began without a recorded pre-swap MAPE: %+v", v.Drift)
				}
			}
			switch v.Rollout.Phase {
			case "shadow":
				sawShadow = true
			case "canary":
				stagesSeen[v.Rollout.Stage] = true
			}
		}
		if !promoted && ctrl.Promotions() >= 1 {
			promoted = true
		}
		if promoted && v.Version >= 2 && v.Drift.Window.Count >= 128 {
			postSwap = v.Drift.Window.MAPE
			break
		}
		if v.Drift.Retraining {
			time.Sleep(10 * time.Millisecond)
		}
	}

	if !sawShadow {
		t.Error("candidate never reported the shadow phase")
	}
	for i := range stages {
		if !stagesSeen[i] {
			t.Errorf("candidate skipped canary stage %d (%.0f%%); seen %v", i, 100*stages[i], stagesSeen)
		}
	}
	if postSwap >= 0.6*preSwap {
		t.Fatalf("promotion did not pay off: pre-swap windowed MAPE %.2f%%, post-promotion %.2f%%", preSwap, postSwap)
	}
	t.Logf("windowed MAPE pre-swap %.2f%% -> post-promotion %.2f%%", preSwap, postSwap)

	// The rollout endpoint reports the completed delivery.
	st := getRolloutStatus(t, ts.URL, "blk")
	if st.Phase != "idle" || st.Promotions != 1 || st.Rollbacks != 0 {
		t.Fatalf("post-promotion rollout status: %+v", st)
	}
	// And the rollout telemetry made it to /metrics.
	exp, err := scrapeStrict(t, ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if fam := exp.Family("lam_rollout_promotions_total"); fam == nil || len(fam.Samples) == 0 || fam.Samples[0].Value < 1 {
		t.Errorf("lam_rollout_promotions_total missing or zero: %+v", fam)
	}
	if fam := exp.Family("lam_rollout_state"); fam == nil || len(fam.Samples) == 0 || fam.Samples[0].Value != 0 {
		t.Errorf("lam_rollout_state should be 0 (idle) after promotion: %+v", fam)
	}
	if fam := exp.Family("lam_rollout_shadow_divergence"); fam == nil || fam.Type != "histogram" {
		t.Errorf("shadow divergence histogram missing: %+v", fam)
	}
}

// TestCanaryRollsBackWorseModel is the chaos half of the acceptance
// suite: a challenger that flatters miscalibrated observations clears
// the shadow gate, starts serving its canary share — never more than
// the stage fraction — and is rolled back and quarantined the moment
// honest labels arrive, with the incumbent taking back every request.
func TestCanaryRollsBackWorseModel(t *testing.T) {
	reg, bad, train, test := newRolloutFixture(t, t.TempDir())
	ts, _, ctrl := newRolloutServer(t, reg, rollout.Config{
		Stages:        []float64{0.5, 1.0},
		ShadowSamples: 32,
		StageSamples:  16,
		PromoteRatio:  0.95,
		Holddown:      time.Hour,
	})

	// Bootstrap v1 as the incumbent, then publish the challenger.
	if v := predictVersion(t, ts.URL, "grid-et", test.X[0]); v != 1 {
		t.Fatalf("bootstrap serves v%d, want 1", v)
	}
	if _, err := reg.SaveRegressor(bad, registry.Meta{Name: "grid-et"}); err != nil {
		t.Fatal(err)
	}

	// Phase 1: replay observations with the same 3x miscalibration the
	// challenger was trained on. It looks better than the incumbent, so
	// it must clear shadow and enter canary stage 0 — while every
	// served prediction still comes from v1.
	const batch = 16
	noisy := make([]float64, batch)
	sawShadow := false
	var st rollout.Status
	for i := 0; i < 20; i++ {
		lo := (i * batch) % (len(train.X) - batch)
		for j := 0; j < batch; j++ {
			noisy[j] = 3 * train.Y[lo+j]
		}
		out := postObserveBatch(t, ts.URL, "grid-et", train.X[lo:lo+batch], noisy)
		if out.Version != 1 {
			t.Fatalf("observe served v%d during shadow, want 1", out.Version)
		}
		if out.Rollout == nil {
			t.Fatalf("no rollout status in observe response: %+v", out)
		}
		if out.Rollout.Phase == "shadow" {
			sawShadow = true
		}
		if out.Rollout.Phase == "canary" {
			st = *out.Rollout
			break
		}
	}
	if !sawShadow || st.Phase != "canary" || st.Stage != 0 || st.Candidate != 2 {
		t.Fatalf("challenger did not reach canary stage 0 (shadow seen: %v): %+v", sawShadow, st)
	}

	// Phase 2: probe the canary split. The challenger serves its hashed
	// share — close to the stage fraction and never meaningfully beyond
	// it.
	probes := test.X
	if len(probes) > 200 {
		probes = probes[:200]
	}
	servedByCand := 0
	for _, x := range probes {
		if predictVersion(t, ts.URL, "grid-et", x) == 2 {
			servedByCand++
		}
	}
	frac := float64(servedByCand) / float64(len(probes))
	if frac > st.Fraction+0.15 {
		t.Fatalf("canary served %.2f of probes, beyond stage fraction %.2f", frac, st.Fraction)
	}
	if servedByCand == 0 {
		t.Fatal("canary stage served no traffic at all")
	}

	// Phase 3: honest labels arrive. The challenger's canary share
	// scores terribly against them and the gate must roll it back
	// within the stage window.
	rolledBack := false
	for i := 0; i < 8 && !rolledBack; i++ {
		lo := (i * batch) % (len(train.X) - batch)
		out := postObserveBatch(t, ts.URL, "grid-et", train.X[lo:lo+batch], train.Y[lo:lo+batch])
		rolledBack = out.Rollout != nil && out.Rollout.Rollbacks >= 1 && out.Rollout.Phase == "idle"
	}
	if !rolledBack {
		t.Fatalf("no rollback within the stage window: %+v", getRolloutStatus(t, ts.URL, "grid-et"))
	}
	if ctrl.Rollbacks() != 1 || ctrl.Promotions() != 0 {
		t.Fatalf("lifetime counters: promotions=%d rollbacks=%d", ctrl.Promotions(), ctrl.Rollbacks())
	}

	// The incumbent takes back 100% of traffic even though the bad
	// artifact is still the newest version on disk.
	if latest, err := reg.LatestVersion("grid-et"); err != nil || latest != 2 {
		t.Fatalf("registry latest = %d (%v), want 2 still on disk", latest, err)
	}
	for _, x := range probes[:50] {
		if v := predictVersion(t, ts.URL, "grid-et", x); v != 1 {
			t.Fatalf("post-rollback predict served v%d, want 1", v)
		}
	}

	// The loser is quarantined: more honest observations must not
	// restart its rollout.
	st = getRolloutStatus(t, ts.URL, "grid-et")
	if len(st.Holddown) != 1 || st.Holddown[0].Version != 2 || st.Holddown[0].Reason == "" {
		t.Fatalf("holddown after rollback: %+v", st.Holddown)
	}
	out := postObserveBatch(t, ts.URL, "grid-et", train.X[:batch], train.Y[:batch])
	if out.Rollout != nil && out.Rollout.Phase != "idle" {
		t.Fatalf("quarantined version restarted a rollout: %+v", out.Rollout)
	}

	// Rollback telemetry.
	exp, err := scrapeStrict(t, ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if fam := exp.Family("lam_rollout_rollbacks_total"); fam == nil || len(fam.Samples) == 0 || fam.Samples[0].Value < 1 {
		t.Errorf("lam_rollout_rollbacks_total missing or zero: %+v", fam)
	}
}

// TestRolloutStateSurvivesRestart: both an in-flight rollout (the pin
// and the shadow phase) and a post-rollback quarantine must come back
// after the serving process is rebuilt from the registry directory.
func TestRolloutStateSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	reg, bad, train, test := newRolloutFixture(t, dir)
	cfg := rollout.Config{
		Stages:        []float64{0.5, 1.0},
		ShadowSamples: 32,
		StageSamples:  16,
		Holddown:      time.Hour,
	}
	ts1, _, _ := newRolloutServer(t, reg, cfg)
	if v := predictVersion(t, ts1.URL, "grid-et", test.X[0]); v != 1 {
		t.Fatalf("bootstrap serves v%d, want 1", v)
	}
	if _, err := reg.SaveRegressor(bad, registry.Meta{Name: "grid-et"}); err != nil {
		t.Fatal(err)
	}
	// One under-threshold batch: the rollout begins and stays in shadow.
	noisy := make([]float64, 16)
	for j := range noisy {
		noisy[j] = 3 * train.Y[j]
	}
	out := postObserveBatch(t, ts1.URL, "grid-et", train.X[:16], noisy)
	if out.Rollout == nil || out.Rollout.Phase != "shadow" {
		t.Fatalf("rollout not in shadow on the first server: %+v", out.Rollout)
	}
	ts1.Close()

	// "Restart": a fresh registry handle over the same directory, a
	// fresh server, a fresh controller. The rollout must resume — same
	// phase, same pin — not blindly serve the newest artifact.
	reg2, err := registry.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ts2, _, _ := newRolloutServer(t, reg2, cfg)
	if v := predictVersion(t, ts2.URL, "grid-et", test.X[0]); v != 1 {
		t.Fatalf("restarted server serves v%d, want pinned v1", v)
	}
	st := getRolloutStatus(t, ts2.URL, "grid-et")
	if st.Phase != "shadow" || st.Candidate != 2 || st.Incumbent != 1 {
		t.Fatalf("resumed rollout status: %+v", st)
	}

	// Roll it back by operator action, restart again: the quarantine
	// and the pin survive too.
	if resp := postRolloutAction(t, ts2.URL, "grid-et", "rollback"); resp.StatusCode != http.StatusOK {
		t.Fatalf("rollback action: status %d", resp.StatusCode)
	}
	ts2.Close()
	reg3, err := registry.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ts3, _, _ := newRolloutServer(t, reg3, cfg)
	if v := predictVersion(t, ts3.URL, "grid-et", test.X[0]); v != 1 {
		t.Fatalf("post-rollback restart serves v%d, want pinned v1", v)
	}
	st = getRolloutStatus(t, ts3.URL, "grid-et")
	if st.Phase != "idle" || len(st.Holddown) != 1 || st.Holddown[0].Version != 2 {
		t.Fatalf("quarantine did not survive restart: %+v", st)
	}
}

// TestRolloutEndpointActions covers the operator surface: pause,
// resume, rollback, conflict on an idle model, bad actions, unknown
// models.
func TestRolloutEndpointActions(t *testing.T) {
	reg, bad, _, test := newRolloutFixture(t, t.TempDir())
	ts, _, _ := newRolloutServer(t, reg, rollout.Config{
		Stages: []float64{0.5, 1.0}, ShadowSamples: 32, StageSamples: 16,
	})
	if v := predictVersion(t, ts.URL, "grid-et", test.X[0]); v != 1 {
		t.Fatalf("bootstrap serves v%d", v)
	}

	// No rollout yet: actions conflict, status reports idle.
	if resp := postRolloutAction(t, ts.URL, "grid-et", "pause"); resp.StatusCode != http.StatusConflict {
		t.Fatalf("pause with no rollout: status %d, want 409", resp.StatusCode)
	}
	if st := getRolloutStatus(t, ts.URL, "grid-et"); st.Phase != "idle" {
		t.Fatalf("idle status: %+v", st)
	}
	resp, err := http.Get(ts.URL + "/models/nope/rollout")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown model rollout: status %d, want 404", resp.StatusCode)
	}

	if _, err := reg.SaveRegressor(bad, registry.Meta{Name: "grid-et"}); err != nil {
		t.Fatal(err)
	}
	// A predict is enough to notice the new version and begin shadow.
	predictVersion(t, ts.URL, "grid-et", test.X[0])
	if st := getRolloutStatus(t, ts.URL, "grid-et"); st.Phase != "shadow" {
		t.Fatalf("rollout not begun by version resolution: %+v", st)
	}

	if resp := postRolloutAction(t, ts.URL, "grid-et", "pause"); resp.StatusCode != http.StatusOK {
		t.Fatalf("pause: status %d", resp.StatusCode)
	}
	if st := getRolloutStatus(t, ts.URL, "grid-et"); !st.Paused {
		t.Fatalf("pause did not stick: %+v", st)
	}
	if resp := postRolloutAction(t, ts.URL, "grid-et", "resume"); resp.StatusCode != http.StatusOK {
		t.Fatalf("resume: status %d", resp.StatusCode)
	}
	if st := getRolloutStatus(t, ts.URL, "grid-et"); st.Paused {
		t.Fatalf("resume did not stick: %+v", st)
	}
	if resp := postRolloutAction(t, ts.URL, "grid-et", "self-destruct"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown action: status %d, want 400", resp.StatusCode)
	}
	if resp := postRolloutAction(t, ts.URL, "grid-et", "rollback"); resp.StatusCode != http.StatusOK {
		t.Fatalf("rollback: status %d", resp.StatusCode)
	}
	st := getRolloutStatus(t, ts.URL, "grid-et")
	if st.Phase != "idle" || len(st.Holddown) != 1 {
		t.Fatalf("after forced rollback: %+v", st)
	}
	if resp := postRolloutAction(t, ts.URL, "grid-et", "rollback"); resp.StatusCode != http.StatusConflict {
		t.Fatalf("double rollback: status %d, want 409", resp.StatusCode)
	}
}

// TestServedAPEIsTheGateRing: lam_served_ape exposes the ledger the
// rollout gate reads. The candidate's cursor is taken at an empty ring
// when shadow begins, so after more shadow-scored rows than the ring
// holds, the status's candidate_window and the candidate version's
// lam_served_ape series summarise the same samples — equal bit for bit.
// The incumbent keeps its own series beside it.
func TestServedAPEIsTheGateRing(t *testing.T) {
	reg, bad, _, test := newRolloutFixture(t, t.TempDir())
	ts, _, _ := newRolloutServer(t, reg, rollout.Config{
		Stages: []float64{1.0}, ShadowSamples: 1 << 20,
	})
	if v := predictVersion(t, ts.URL, "grid-et", test.X[0]); v != 1 {
		t.Fatalf("bootstrap serves v%d", v)
	}
	const batch = 16
	// Incumbent history from before the rollout: in its series, not in
	// any gate window.
	postObserveBatch(t, ts.URL, "grid-et", test.X[:batch], test.Y[:batch])
	if _, err := reg.SaveRegressor(bad, registry.Meta{Name: "grid-et"}); err != nil {
		t.Fatal(err)
	}
	// 80 shadow rows wrap the 64-sample ring.
	for i := 1; i <= 5; i++ {
		lo := i * batch
		out := postObserveBatch(t, ts.URL, "grid-et", test.X[lo:lo+batch], test.Y[lo:lo+batch])
		if out.Rollout == nil || out.Rollout.Phase != "shadow" {
			t.Fatalf("batch %d: rollout not in shadow: %+v", i, out.Rollout)
		}
	}
	st := getRolloutStatus(t, ts.URL, "grid-et")
	if st.Phase != "shadow" || st.Candidate != 2 || st.CandidateWindow.Count != 64 {
		t.Fatalf("want a full 64-sample candidate window in shadow: %+v", st)
	}

	exp, err := scrapeStrict(t, ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	fam := exp.Family("lam_served_ape")
	if fam == nil {
		t.Fatal("lam_served_ape missing during shadow")
	}
	series := map[string]map[string]float64{} // version -> quantile -> value
	for _, s := range fam.Samples {
		if model, _ := s.Label("model"); model != "grid-et" {
			continue
		}
		version, _ := s.Label("version")
		q, _ := s.Label("quantile")
		if series[version] == nil {
			series[version] = map[string]float64{}
		}
		series[version][q] = s.Value
	}
	if len(series["1"]) == 0 {
		t.Errorf("incumbent v1 has no lam_served_ape series: %+v", fam.Samples)
	}
	cand := series["2"]
	for _, c := range []struct {
		q    string
		gate float64
	}{{"0.5", st.CandidateWindow.P50}, {"0.9", st.CandidateWindow.P90}} {
		got, ok := cand[c.q]
		if !ok {
			t.Fatalf("no lam_served_ape{version=\"2\",quantile=%q} sample: %+v", c.q, fam.Samples)
		}
		if math.Float64bits(got) != math.Float64bits(c.gate) {
			t.Errorf("quantile %s: lam_served_ape %v, gate window %v", c.q, got, c.gate)
		}
	}
}

// TestShadowPredictionsBitIdentical: what the shadow scorer records
// for the candidate equals scoring the same rows through an
// independently loaded copy of the candidate artifact, bit for bit.
func TestShadowPredictionsBitIdentical(t *testing.T) {
	reg, bad, _, test := newRolloutFixture(t, t.TempDir())
	ts, _, ctrl := newRolloutServer(t, reg, rollout.Config{
		Stages: []float64{1.0}, ShadowSamples: 1 << 20,
	})
	if v := predictVersion(t, ts.URL, "grid-et", test.X[0]); v != 1 {
		t.Fatalf("bootstrap serves v%d", v)
	}
	if _, err := reg.SaveRegressor(bad, registry.Meta{Name: "grid-et"}); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var gotX [][]float64
	var gotY []float64
	ctrl.ShadowSink = func(name string, version int, X [][]float64, preds []float64) {
		if name != "grid-et" || version != 2 {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		// The slices are pooled scratch: the sink must copy.
		for i := range X {
			row := make([]float64, len(X[i]))
			copy(row, X[i])
			gotX = append(gotX, row)
			gotY = append(gotY, preds[i])
		}
	}

	rows := test.X[:16]
	// A batch predict and a single-row predict, both shadow-scored.
	if resp, body := postPredict(t, ts.URL, map[string]any{"model": "grid-et", "batch": rows}); resp.StatusCode != http.StatusOK {
		t.Fatalf("batch predict: %d (%s)", resp.StatusCode, body)
	}
	if v := predictVersion(t, ts.URL, "grid-et", test.X[20]); v != 1 {
		t.Fatalf("shadow-phase predict served v%d, want 1", v)
	}
	// Shadow scoring runs in the handler after the response is written;
	// give it a beat.
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := len(gotY)
		mu.Unlock()
		if n >= len(rows)+1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("shadow sink saw %d predictions, want %d", n, len(rows)+1)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Independent decode of the candidate artifact, same worker config.
	cand, err := reg.Load("grid-et", 2)
	if err != nil {
		t.Fatal(err)
	}
	cand.Workers = 1
	mu.Lock()
	defer mu.Unlock()
	want := make([]float64, len(gotX))
	if err := cand.PredictBatchInto(context.Background(), gotX, want); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(gotY[i]) {
			t.Fatalf("shadow prediction %d not bit-identical: shadow %x direct %x", i,
				math.Float64bits(gotY[i]), math.Float64bits(want[i]))
		}
	}
}

// TestServeZeroPerRowAllocationsWithShadow extends the serve hot-path
// allocation contract to progressive delivery: with a rollout in
// shadow phase — every served batch also scored by the candidate and
// fed to the divergence histogram — per-row allocations must stay
// zero (allocations do not grow with batch size).
func TestServeZeroPerRowAllocationsWithShadow(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	reg, bad, _, test := newRolloutFixture(t, t.TempDir())
	ts, srv, _ := newRolloutServer(t, reg, rollout.Config{
		Stages: []float64{1.0}, ShadowSamples: 1 << 20,
	})
	if v := predictVersion(t, ts.URL, "grid-et", test.X[0]); v != 1 {
		t.Fatalf("bootstrap serves v%d", v)
	}
	if _, err := reg.SaveRegressor(bad, registry.Meta{Name: "grid-et"}); err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	m, err := srv.load(ctx, "grid-et", 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.Meta.Version != 1 {
		t.Fatalf("pinned load resolved v%d, want 1", m.Meta.Version)
	}
	rv := srv.rolloutView("grid-et", 0)
	if rv == nil || rv.Phase != rollout.PhaseShadow {
		t.Fatalf("no shadow view active: %+v", rv)
	}

	servePath := func(rows [][]float64) float64 {
		// Warm the scratch pools at this size before measuring.
		out := ml.GetScratch(len(rows))
		if err := m.PredictBatchInto(ctx, rows, *out); err != nil {
			t.Fatal(err)
		}
		srv.shadowScoreBatch(ctx, rv, rows, *out)
		ml.PutScratch(out)
		return testing.AllocsPerRun(50, func() {
			out := ml.GetScratch(len(rows))
			if err := m.PredictBatchInto(ctx, rows, *out); err != nil {
				t.Fatal(err)
			}
			srv.shadowScoreBatch(ctx, rv, rows, *out)
			ml.PutScratch(out)
		})
	}
	small := servePath(test.X[:8])
	large := servePath(test.X[:256])
	if large > small {
		t.Fatalf("shadow-scored serve path allocates per row: %.1f allocs at 8 rows vs %.1f at 256", small, large)
	}
}
