package online

import (
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"lam/internal/dataset"
	"lam/internal/experiments"
	"lam/internal/hybrid"
	"lam/internal/ml"
	"lam/internal/registry"
)

func TestWindowRingAndRollingMAPE(t *testing.T) {
	w := newWindow(4)
	// Six samples through a capacity-4 ring: the first two fall out.
	for i := 1; i <= 6; i++ {
		w.add([]float64{float64(i)}, float64(i)*1.1, float64(i))
	}
	st := w.stats()
	if st.Count != 4 || st.Capacity != 4 || st.Total != 6 {
		t.Fatalf("stats %+v, want count 4 / cap 4 / total 6", st)
	}
	// Every held sample has a 10% error.
	if st.MAPE < 9.99 || st.MAPE > 10.01 {
		t.Fatalf("rolling MAPE %v, want ~10", st.MAPE)
	}
	snap := w.snapshot()
	if len(snap) != 4 {
		t.Fatalf("snapshot holds %d samples", len(snap))
	}
	for i, s := range snap {
		if want := float64(i + 3); s.Observed != want || s.X[0] != want {
			t.Fatalf("snapshot[%d] = %+v, want oldest-first starting at 3", i, s)
		}
	}
	// add must copy the caller's vector: mutating it afterwards must
	// not reach the stored sample.
	x := []float64{42}
	w.add(x, 1, 1)
	x[0] = -1
	snap = w.snapshot()
	if got := snap[len(snap)-1].X[0]; got != 42 {
		t.Fatalf("stored feature vector aliased the caller's slice: %v", got)
	}
	w.reset()
	st = w.stats()
	if st.Count != 0 || st.MAPE != 0 {
		t.Fatalf("reset left %+v", st)
	}
	if st.Total != 7 {
		t.Fatalf("reset dropped lifetime total: %d", st.Total)
	}
	// Zero-observation samples are skipped by the rolling MAPE, as in
	// ml.MAPE.
	w.add([]float64{1}, 5, 0)
	w.add([]float64{1}, 2, 1)
	if got := w.stats().MAPE; got != 100 {
		t.Fatalf("MAPE with one undefined sample = %v, want 100", got)
	}
}

// TestWindowArityChangeResizes: a row of another arity clears the flat
// ring and resizes it; the lifetime total keeps counting.
func TestWindowArityChangeResizes(t *testing.T) {
	w := newWindow(3)
	for i := 0; i < 5; i++ {
		w.add([]float64{float64(i), 1}, 1, 1)
	}
	w.add([]float64{7, 8, 9}, 2, 1)
	st := w.stats()
	if st.Count != 1 || st.Total != 6 || st.MAPE != 100 {
		t.Fatalf("after an arity change: %+v, want count 1 / total 6 / MAPE 100", st)
	}
	snap := w.snapshot()
	if len(snap) != 1 || fmt.Sprint(snap[0].X) != "[7 8 9]" {
		t.Fatalf("snapshot after an arity change = %+v", snap)
	}
	snap[0].X[0] = -1
	if got := w.snapshot()[0].X[0]; got != 7 {
		t.Fatalf("snapshot rows alias the ring: %v", got)
	}
}

func TestDetectorHysteresisAndMinSamples(t *testing.T) {
	d := detector{cfg: DetectorConfig{DegradeFactor: 1.5, MinSamples: 10}.normalized()}
	baseline := 10.0 // threshold 15, recover band 11

	if d.update(50, baseline, 9) {
		t.Fatal("fired below MinSamples")
	}
	if d.tripped {
		t.Fatal("state changed below MinSamples")
	}
	if !d.update(16, baseline, 10) {
		t.Fatal("did not fire past threshold with enough samples")
	}
	if d.update(25, baseline, 11) {
		t.Fatal("re-fired while already tripped (no hysteresis)")
	}
	if !d.tripped {
		t.Fatal("lost tripped state")
	}
	// Back inside the hysteresis band but above recover: stays tripped.
	if d.update(12, baseline, 12) || !d.tripped {
		t.Fatal("recovered above the recover band")
	}
	// Below recover: re-arms without firing.
	if d.update(10.5, baseline, 12) {
		t.Fatal("fired on recovery")
	}
	if d.tripped {
		t.Fatal("did not re-arm below the recover band")
	}
	// Re-armed: a fresh degradation fires again.
	if !d.update(16, baseline, 12) {
		t.Fatal("did not fire after re-arming")
	}

	// The absolute floor guards near-zero baselines — both when
	// tripping and when re-arming (a pure factor×baseline recovery
	// band would demand MAPE <= 0 and latch the detector forever).
	d2 := detector{cfg: DetectorConfig{MinSamples: 1}.normalized()}
	if d2.update(4, 0, 100) {
		t.Fatal("fired below the minMAPE floor on a zero baseline")
	}
	if !d2.update(6, 0, 100) {
		t.Fatal("did not fire above the minMAPE floor")
	}
	if d2.update(4, 0, 100) {
		t.Fatal("fired instead of recovering")
	}
	if d2.tripped {
		t.Fatal("zero-baseline detector did not re-arm below the floor")
	}
	if !d2.update(6, 0, 100) {
		t.Fatal("re-armed zero-baseline detector did not fire again")
	}
}

// driftFixture publishes a hybrid trained on the source machine and
// returns the registry, the loaded model and the target-machine
// observation stream.
func driftFixture(t *testing.T) (*registry.Registry, *registry.Model, *experiments.DriftScenario) {
	t.Helper()
	sc, err := experiments.DriftScenarioCtx(context.Background(), "stencil-grid", "bluewaters", "xeon", 0.05, 42)
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
		Name: "grid", Workload: sc.Workload, Machine: sc.SourceName,
		TrainSize: sc.Train.Len(), TestMAPE: baseline,
	}); err != nil {
		t.Fatal(err)
	}
	m, err := reg.Load("grid", 0)
	if err != nil {
		t.Fatal(err)
	}
	m.Workers = 1
	return reg, m, sc
}

// observeStream feeds n observations from the scenario stream (starting
// at off) through the plane, scoring them with m, and returns the last
// status.
// retrainNow starts a background retrain of m without waiting for the
// detector, reporting whether it did (false while one is in flight).
func retrainNow(p *Plane, m *registry.Model) bool {
	st := p.state(m.Meta.Name)
	st.mu.Lock()
	defer st.mu.Unlock()
	return p.startRetrainLocked(st, m)
}

func observeStream(t *testing.T, p *Plane, m *registry.Model, sc *experiments.DriftScenario, off, n int) Status {
	t.Helper()
	var last Status
	for lo := off; lo < off+n; lo += 16 {
		hi := lo + 16
		if hi > off+n {
			hi = off + n
		}
		X := sc.Stream.X[lo:hi]
		obs := sc.Stream.Y[lo:hi]
		pred := make([]float64, len(X))
		if err := m.PredictBatchInto(context.Background(), X, pred); err != nil {
			t.Fatal(err)
		}
		st, err := p.Observe(m, X, pred, obs)
		if err != nil {
			t.Fatal(err)
		}
		last = st
	}
	return last
}

func waitRetrainDone(t *testing.T, p *Plane, m *registry.Model) Status {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := p.Status(m)
		if !st.Retraining && st.RetrainsStarted > 0 {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("retrain did not finish: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestPlaneDriftRetrainPublishImproves is the library-level closed
// loop: hardware-transfer observations trip the detector, the
// background retrain merges window + original training set, publishes
// an improved version, resets the window, and the adapted model's
// windowed accuracy on further target observations beats the pre-swap
// window.
func TestPlaneDriftRetrainPublishImproves(t *testing.T) {
	reg, m, sc := driftFixture(t)
	var published []registry.Meta
	p := New(reg, Config{
		WindowSize: 128,
		Detector:   DetectorConfig{MinSamples: 48},
		BaseData: func(meta registry.Meta) (*dataset.Dataset, error) {
			return sc.Train, nil
		},
		Seed:    7,
		Workers: 1,
	})
	defer p.Close()
	p.OnPublish = func(meta registry.Meta) { published = append(published, meta) }

	// Target-machine observations through the source-trained model:
	// the window MAPE should blow past the threshold and trip.
	st := observeStream(t, p, m, sc, 0, 64)
	if !st.Tripped && !st.Retraining && st.RetrainsStarted == 0 {
		t.Fatalf("detector did not trip on hardware-transfer drift: %+v", st)
	}
	preTrip := st.LastTripMAPE
	if preTrip <= st.ThresholdMAPE {
		t.Fatalf("trip MAPE %v not above threshold %v", preTrip, st.ThresholdMAPE)
	}

	st = waitRetrainDone(t, p, m)
	if st.RetrainsPublished != 1 {
		t.Fatalf("retrain did not publish: %+v", st)
	}
	if len(published) != 1 || published[0].Version != 2 {
		t.Fatalf("OnPublish saw %+v, want version 2", published)
	}
	if published[0].TestMAPE <= 0 {
		t.Fatalf("published meta lacks holdout MAPE: %+v", published[0])
	}
	// BaseSize pins the original training-set size across generations;
	// TrainSize records the merged set this version was fitted on.
	if published[0].BaseSize != sc.Train.Len() || published[0].TrainSize <= published[0].BaseSize {
		t.Fatalf("published sizes: base %d (want %d), train %d",
			published[0].BaseSize, sc.Train.Len(), published[0].TrainSize)
	}
	if st.Window.Count != 0 {
		t.Fatalf("window not reset on publish: %+v", st.Window)
	}
	if st.PreSwapMAPE <= 0 {
		t.Fatalf("pre-swap MAPE not recorded: %+v", st)
	}

	// Serve the published version and stream more target observations:
	// the adapted window MAPE must be measurably below the pre-swap one.
	m2, err := reg.Load("grid", 0)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Meta.Version != 2 {
		t.Fatalf("latest is v%d, want the retrained v2", m2.Meta.Version)
	}
	m2.Workers = 1
	st = observeStream(t, p, m2, sc, 64, 96)
	if st.Window.MAPE >= st.PreSwapMAPE {
		t.Fatalf("no adaptation: post-swap window MAPE %.2f%% vs pre-swap %.2f%%",
			st.Window.MAPE, st.PreSwapMAPE)
	}
	t.Logf("windowed MAPE: pre-swap %.2f%%, post-swap %.2f%% (baseline %.2f%%, published holdout %.2f%%)",
		st.PreSwapMAPE, st.Window.MAPE, m.Meta.TestMAPE, published[0].TestMAPE)
}

// TestRetrainOneInFlightPerModel holds a retrain inside its BaseData
// hook and checks the plane refuses a second one for the same model.
func TestRetrainOneInFlightPerModel(t *testing.T) {
	reg, m, sc := driftFixture(t)
	release := make(chan struct{})
	p := New(reg, Config{
		WindowSize: 128,
		Detector:   DetectorConfig{MinSamples: 16},
		BaseData: func(meta registry.Meta) (*dataset.Dataset, error) {
			<-release
			return sc.Train, nil
		},
		// Only the test's own retrainNow calls may start retrains, or
		// the drifting window would race us to the in-flight slot.
		DisableRetrain: true,
		Seed:           7,
		Workers:        1,
	})
	defer func() {
		// Close waits on the in-flight retrain; make sure it can exit
		// even when an assertion fails before the release.
		select {
		case <-release:
		default:
			close(release)
		}
		p.Close()
	}()

	observeStream(t, p, m, sc, 0, 32)
	if !retrainNow(p, m) {
		t.Fatal("first retrain did not start")
	}
	if retrainNow(p, m) {
		t.Fatal("a second retrain started while the first was in flight")
	}
	close(release)
	st := waitRetrainDone(t, p, m)
	if st.RetrainsStarted != 1 {
		t.Fatalf("started %d retrains, want 1", st.RetrainsStarted)
	}
}

// TestRetrainDiscardsWhenWorse poisons the base training set so the
// retrained candidate must lose to the deployed model on the holdout —
// the plane must discard it and publish nothing.
func TestRetrainDiscardsWhenWorse(t *testing.T) {
	reg, m, sc := driftFixture(t)
	p := New(reg, Config{
		WindowSize: 128,
		Detector:   DetectorConfig{MinSamples: 16},
		BaseData: func(meta registry.Meta) (*dataset.Dataset, error) {
			// Same features, scrambled responses: any model fitted on
			// this is noise.
			bad := sc.Train.Clone()
			rng := rand.New(rand.NewSource(1))
			for i := range bad.Y {
				bad.Y[i] *= 1000 * (1 + rng.Float64())
			}
			return bad, nil
		},
		DisableRetrain: true,
		Seed:           7,
		Workers:        1,
	})
	defer p.Close()

	// Observations from the *source* distribution: the deployed model
	// is accurate here, so the poisoned retrain cannot beat it.
	X := sc.SourceTest.X[:32]
	obs := sc.SourceTest.Y[:32]
	pred := make([]float64, len(X))
	if err := m.PredictBatchInto(context.Background(), X, pred); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Observe(m, X, pred, obs); err != nil {
		t.Fatal(err)
	}
	if !retrainNow(p, m) {
		t.Fatal("retrain did not start")
	}
	st := waitRetrainDone(t, p, m)
	if st.RetrainsDiscarded != 1 || st.RetrainsPublished != 0 {
		t.Fatalf("want 1 discarded / 0 published, got %+v", st)
	}
	if st.LastError != "" {
		t.Fatalf("discard recorded as error: %q", st.LastError)
	}
	if v, err := reg.LatestVersion("grid"); err != nil || v != 1 {
		t.Fatalf("a worse model was published: latest v%d, err %v", v, err)
	}
	if st.Window.Count == 0 {
		t.Fatal("window was reset despite no publish")
	}
}

// TestRetrainRetriesAfterDiscard: a failed adaptation must not latch
// the detector off. The first (auto-started) retrain loses on the
// holdout because its base set is poisoned; the plane re-arms the
// detector behind a MinSamples fresh-observation barrier, and once the
// drift persists past it a second retrain runs — this time with a
// clean base — and publishes.
func TestRetrainRetriesAfterDiscard(t *testing.T) {
	reg, m, sc := driftFixture(t)
	var calls atomic.Int64
	p := New(reg, Config{
		WindowSize: 128,
		Detector:   DetectorConfig{MinSamples: 16},
		BaseData: func(meta registry.Meta) (*dataset.Dataset, error) {
			if calls.Add(1) == 1 {
				bad := sc.Train.Clone()
				for i := range bad.Y {
					bad.Y[i] *= 1e6
				}
				return bad, nil
			}
			return sc.Train, nil
		},
		Seed:    7,
		Workers: 1,
	})
	defer p.Close()

	// Trip on the drifting stream; the poisoned first retrain discards.
	st := observeStream(t, p, m, sc, 0, 16)
	if st.Trips != 1 || st.RetrainsStarted != 1 {
		t.Fatalf("first trip did not start a retrain: %+v", st)
	}
	st = waitRetrainDone(t, p, m)
	if st.RetrainsDiscarded != 1 || st.RetrainsPublished != 0 {
		t.Fatalf("poisoned retrain was not discarded: %+v", st)
	}
	if st.Tripped {
		t.Fatalf("detector not re-armed after discard: %+v", st)
	}

	// Stream past the barrier: the still-degraded window must trip and
	// retrain again, and the clean base must publish this time.
	deadline := time.Now().Add(30 * time.Second)
	off := 16
	for {
		if time.Now().After(deadline) {
			t.Fatalf("no retry within the stream: %+v", st)
		}
		st = observeStream(t, p, m, sc, off, 16)
		off += 16
		if st.RetrainsStarted >= 2 {
			break
		}
	}
	st = waitRetrainDone(t, p, m)
	if st.RetrainsPublished != 1 {
		t.Fatalf("retry did not publish: %+v", st)
	}
	if v, err := reg.LatestVersion("grid"); err != nil || v != 2 {
		t.Fatalf("latest v%d (%v), want the retried publish v2", v, err)
	}
}

// TestRetrainRegressorKind covers the non-hybrid publish path: a plain
// regressor artifact retrains from the window alone (no workload
// provenance) and publishes when it improves.
func TestRetrainRegressorKind(t *testing.T) {
	sc, err := experiments.DriftScenarioCtx(context.Background(), "stencil-grid", "bluewaters", "xeon", 0.05, 42)
	if err != nil {
		t.Fatal(err)
	}
	et := &ml.Pipeline{Model: ml.NewExtraTrees(25, 7)}
	if err := et.Fit(sc.Train.X, sc.Train.Y); err != nil {
		t.Fatal(err)
	}
	reg, err := registry.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.SaveRegressor(et, registry.Meta{Name: "grid-et", TestMAPE: 10}); err != nil {
		t.Fatal(err)
	}
	m, err := reg.Load("grid-et", 0)
	if err != nil {
		t.Fatal(err)
	}
	m.Workers = 1

	p := New(reg, Config{
		WindowSize:     256,
		Detector:       DetectorConfig{MinSamples: 32},
		DisableRetrain: true,
		Seed:           7,
		Workers:        1,
	})
	defer p.Close()
	observeStream(t, p, m, sc, 0, 192)
	if !retrainNow(p, m) {
		t.Fatal("retrain did not start")
	}
	st := waitRetrainDone(t, p, m)
	if st.RetrainsPublished != 1 {
		t.Fatalf("regressor retrain did not publish: %+v", st)
	}
	m2, err := reg.Load("grid-et", 0)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Meta.Version != 2 || m2.Meta.Kind != registry.KindRegressor {
		t.Fatalf("published %+v", m2.Meta)
	}
	if m2.Meta.TrainSize == 0 || m2.Meta.Notes == "" {
		t.Fatalf("retrained meta lacks provenance: %+v", m2.Meta)
	}
}
