package rollout

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"lam/internal/online"
	"lam/internal/registry"
)

// memStore is an in-memory Store so the state-machine tests need no
// filesystem; it also counts saves to prove transitions persist.
type memStore struct {
	mu    sync.Mutex
	state map[string]registry.RolloutState
	saves int
}

func newMemStore() *memStore { return &memStore{state: map[string]registry.RolloutState{}} }

func (s *memStore) SaveRolloutState(st registry.RolloutState) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.state[st.Model] = st
	s.saves++
	return nil
}

func (s *memStore) LoadRolloutState(name string) (registry.RolloutState, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.state[name]
	return st, ok, nil
}

// stubLoader returns placeholder artifacts (the unit tests never score
// through them) and can be told to fail specific versions.
func stubLoader(fail map[int]bool) func(context.Context, string, int) (*registry.Model, error) {
	return func(_ context.Context, name string, version int) (*registry.Model, error) {
		if fail[version] {
			return nil, fmt.Errorf("stub: no artifact for v%d", version)
		}
		return &registry.Model{Meta: registry.Meta{Name: name, Version: version}}, nil
	}
}

func testConfig(now func() time.Time) Config {
	return Config{
		Stages:        []float64{0.5, 1.0},
		ShadowSamples: 4,
		StageSamples:  4,
		PromoteRatio:  0.9,
		Holddown:      time.Hour,
		Now:           now,
	}
}

// ingestAPE feeds n observation rows where the candidate's APE is
// candPct and the incumbent's incPct (obs fixed at 100). The incumbent
// side is recorded straight into the ledger, as the online plane does
// for every row the incumbent serves.
func ingestAPE(c *Controller, name string, n int, candPct, incPct float64) Status {
	obs := make([]float64, n)
	cp := make([]float64, n)
	ip := make([]float64, n)
	for i := range obs {
		obs[i] = 100
		cp[i] = 100 - candPct
		ip[i] = 100 - incPct
	}
	c.ledger.Record(name, c.Status(name).Incumbent, obs, ip)
	return c.Ingest(context.Background(), name, obs, cp)
}

// TestControllerPromotionWalk drives the full happy path: bootstrap,
// begin on a newer publish, shadow gate, every canary stage, promote —
// with callbacks firing and the pin releasing at the end.
func TestControllerPromotionWalk(t *testing.T) {
	ctx := context.Background()
	store := newMemStore()
	c := New(store, online.NewLedger(16), testConfig(nil))
	c.Load = stubLoader(nil)
	var began, promoted []int
	c.OnBegin = func(_ string, v int) { began = append(began, v) }
	c.OnPromote = func(_ string, v int) { promoted = append(promoted, v) }

	// Bootstrap: the first version ever seen has no incumbent — serve
	// it directly, no rollout.
	if pin := c.Pin(ctx, "m", 1); pin != 0 {
		t.Fatalf("bootstrap pin = %d, want 0 (serve registry latest)", pin)
	}
	if st := c.Status("m"); st.Phase != "idle" {
		t.Fatalf("bootstrap must not start a rollout: %+v", st)
	}

	// v2 appears: rollout begins, latest stays pinned to v1.
	if pin := c.Pin(ctx, "m", 2); pin != 1 {
		t.Fatalf("pin during rollout = %d, want 1", pin)
	}
	st := c.Status("m")
	if st.Phase != "shadow" || st.Candidate != 2 || st.Incumbent != 1 {
		t.Fatalf("after begin: %+v", st)
	}
	if len(began) != 1 || began[0] != 2 {
		t.Fatalf("OnBegin calls = %v, want [2]", began)
	}
	if v := c.ActiveView("m"); !v.Active() || v.Phase != PhaseShadow || v.CandidateVersion() != 2 {
		t.Fatalf("active view after begin: %+v", v)
	}

	// Candidate clearly better (5% vs 40% APE): one gate per ingest.
	st = ingestAPE(c, "m", 4, 5, 40)
	if st.Phase != "canary" || st.Stage != 0 || st.Fraction != 0.5 {
		t.Fatalf("after shadow gate: %+v", st)
	}
	if st.CandidateWindow.Count != 0 {
		t.Fatalf("candidate window must reset entering canary, count=%d", st.CandidateWindow.Count)
	}
	st = ingestAPE(c, "m", 4, 5, 40)
	if st.Phase != "canary" || st.Stage != 1 || st.Fraction != 1.0 {
		t.Fatalf("after stage-0 gate: %+v", st)
	}
	st = ingestAPE(c, "m", 4, 5, 40)
	if st.Phase != "idle" || st.Candidate != 0 || st.Promotions != 1 {
		t.Fatalf("after final gate: %+v", st)
	}
	if len(promoted) != 1 || promoted[0] != 2 {
		t.Fatalf("OnPromote calls = %v, want [2]", promoted)
	}
	if c.Promotions() != 1 || c.Rollbacks() != 0 {
		t.Fatalf("counters: promotions=%d rollbacks=%d", c.Promotions(), c.Rollbacks())
	}
	// The pin is released: v2 is now latest for real.
	if pin := c.Pin(ctx, "m", 2); pin != 0 {
		t.Fatalf("pin after promote = %d, want 0", pin)
	}
	// Persisted state is idle with the promotion recorded.
	ps, ok, _ := store.LoadRolloutState("m")
	if !ok || ps.Candidate != 0 || ps.Pinned != 0 || ps.Phase != "" {
		t.Fatalf("persisted state after promote: %+v", ps)
	}
	if store.saves < 4 {
		t.Fatalf("every transition must persist; only %d saves", store.saves)
	}
}

// TestControllerRollbackAndHolddown: a worse candidate fails its gate,
// rolls back, serves nothing, and is quarantined — while a later,
// different version may still roll out.
func TestControllerRollbackAndHolddown(t *testing.T) {
	ctx := context.Background()
	now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	clock := func() time.Time { return now }
	store := newMemStore()
	c := New(store, online.NewLedger(16), testConfig(clock))
	c.Load = stubLoader(nil)
	var rolledBack []int
	c.OnRollback = func(_ string, v int) { rolledBack = append(rolledBack, v) }

	c.Pin(ctx, "m", 1)
	c.Pin(ctx, "m", 2)
	st := ingestAPE(c, "m", 4, 40, 5) // candidate much worse
	if st.Phase != "idle" || st.Rollbacks != 1 {
		t.Fatalf("after failed shadow gate: %+v", st)
	}
	if len(rolledBack) != 1 || rolledBack[0] != 2 {
		t.Fatalf("OnRollback calls = %v, want [2]", rolledBack)
	}
	if len(st.Holddown) != 1 || st.Holddown[0].Version != 2 {
		t.Fatalf("holddown after rollback: %+v", st.Holddown)
	}
	// The pin survives the rollback: v2 is still newest on disk but
	// must not serve.
	if pin := c.Pin(ctx, "m", 2); pin != 1 {
		t.Fatalf("pin after rollback = %d, want 1", pin)
	}
	if v := c.ActiveView("m"); v.Active() {
		t.Fatalf("no view may be active after rollback: %+v", v)
	}

	// A quarantined version must not re-enter, even through a cold
	// controller entry that re-reads the persisted state.
	c.models.Delete("m")
	if pin := c.Pin(ctx, "m", 2); pin != 1 {
		t.Fatalf("quarantined version re-pinned differently: %d", pin)
	}
	if st := c.Status("m"); st.Phase != "idle" {
		t.Fatalf("quarantined version restarted a rollout: %+v", st)
	}

	// v3 is a different artifact: it gets its chance immediately.
	if pin := c.Pin(ctx, "m", 3); pin != 1 {
		t.Fatalf("pin during v3 rollout = %d, want 1", pin)
	}
	if st := c.Status("m"); st.Phase != "shadow" || st.Candidate != 3 {
		t.Fatalf("v3 must begin a fresh rollout: %+v", st)
	}

	// Expire the quarantine and roll v3 back too; v2's entry is pruned
	// from the persisted holddown on the next transition.
	now = now.Add(2 * time.Hour)
	st = ingestAPE(c, "m", 4, 40, 5)
	if c.Rollbacks() != 2 {
		t.Fatalf("v3 rollback missing (lifetime rollbacks=%d): %+v", c.Rollbacks(), st)
	}
	for _, h := range st.Holddown {
		if h.Version == 2 {
			t.Fatalf("expired holddown entry for v2 not pruned: %+v", st.Holddown)
		}
	}
}

// TestControllerSupersede: publishing v3 while v2 is mid-rollout
// cancels v2 without quarantine and evaluates v3 against the same
// incumbent.
func TestControllerSupersede(t *testing.T) {
	ctx := context.Background()
	c := New(newMemStore(), online.NewLedger(16), testConfig(nil))
	c.Load = stubLoader(nil)
	c.Pin(ctx, "m", 1)
	c.Pin(ctx, "m", 2)
	ingestAPE(c, "m", 4, 5, 40) // v2 into canary
	if pin := c.Pin(ctx, "m", 3); pin != 1 {
		t.Fatalf("pin after supersede = %d, want 1", pin)
	}
	st := c.Status("m")
	if st.Candidate != 3 || st.Phase != "shadow" || st.Incumbent != 1 {
		t.Fatalf("v3 must restart evaluation from shadow: %+v", st)
	}
	if len(st.Holddown) != 0 {
		t.Fatalf("a superseded candidate is not quarantined: %+v", st.Holddown)
	}
	if c.Rollbacks() != 0 {
		t.Fatal("supersede must not count as a rollback")
	}
}

// TestControllerResume: a fresh controller over the same store picks
// the rollout up where the crashed one left it — same phase, stage and
// pin — with the candidate artifact reloaded and a matching view.
func TestControllerResume(t *testing.T) {
	ctx := context.Background()
	store := newMemStore()
	c1 := New(store, online.NewLedger(16), testConfig(nil))
	c1.Load = stubLoader(nil)
	c1.Pin(ctx, "m", 1)
	c1.Pin(ctx, "m", 2)
	ingestAPE(c1, "m", 4, 5, 40) // advance to canary stage 0

	c2 := New(store, online.NewLedger(16), testConfig(nil))
	c2.Load = stubLoader(nil)
	began := 0
	c2.OnBegin = func(string, int) { began++ }
	if pin := c2.Pin(ctx, "m", 2); pin != 1 {
		t.Fatalf("resumed pin = %d, want 1", pin)
	}
	if began != 1 {
		t.Fatal("resume must re-arm the serving hooks (OnBegin)")
	}
	st := c2.Status("m")
	if st.Phase != "canary" || st.Stage != 0 || st.Candidate != 2 || st.Incumbent != 1 {
		t.Fatalf("resumed status: %+v", st)
	}
	// Evaluation windows restart empty: stale pre-crash samples must
	// not judge the candidate.
	if st.CandidateWindow.Count != 0 || st.IncumbentWindow.Count != 0 {
		t.Fatalf("resumed windows must be empty: %+v", st)
	}

	// Replica agreement: both controllers are mid-canary at the same
	// stage; their views must route every request identically.
	v1, v2 := c1.ActiveView("m"), c2.ActiveView("m")
	if !v1.Active() || !v2.Active() {
		t.Fatal("both replicas must have an active view")
	}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 2_000; i++ {
		x := randRow(rng)
		if v1.RouteRow(x) != v2.RouteRow(x) {
			t.Fatal("replicas disagree on a canary routing decision")
		}
	}
}

// TestControllerCandidateLoadFailure: an unloadable artifact is
// refused and quarantined instead of being retried on every request.
func TestControllerCandidateLoadFailure(t *testing.T) {
	ctx := context.Background()
	store := newMemStore()
	c := New(store, online.NewLedger(16), testConfig(nil))
	c.Load = stubLoader(map[int]bool{2: true})
	c.Pin(ctx, "m", 1)
	if pin := c.Pin(ctx, "m", 2); pin != 1 {
		t.Fatalf("pin with unloadable candidate = %d, want 1 (keep serving incumbent)", pin)
	}
	st := c.Status("m")
	if st.Phase != "idle" || st.Candidate != 0 {
		t.Fatalf("unloadable candidate must not enter shadow: %+v", st)
	}
	if len(st.Holddown) != 1 || st.Holddown[0].Version != 2 {
		t.Fatalf("unloadable candidate must be quarantined: %+v", st.Holddown)
	}
}

// TestControllerOperatorActions covers pause (gates freeze, traffic
// keeps flowing), force-promote, force-rollback, and ErrNoRollout when
// idle.
func TestControllerOperatorActions(t *testing.T) {
	ctx := context.Background()
	c := New(newMemStore(), online.NewLedger(16), testConfig(nil))
	c.Load = stubLoader(nil)

	if err := c.Pause("m", true); !errors.Is(err, ErrNoRollout) {
		t.Fatalf("pause with no rollout: %v, want ErrNoRollout", err)
	}
	if err := c.ForcePromote("m"); !errors.Is(err, ErrNoRollout) {
		t.Fatalf("promote with no rollout: %v, want ErrNoRollout", err)
	}

	c.Pin(ctx, "m", 1)
	c.Pin(ctx, "m", 2)
	if err := c.Pause("m", true); err != nil {
		t.Fatal(err)
	}
	// Paused: windows fill but no transition happens.
	st := ingestAPE(c, "m", 8, 5, 40)
	if st.Phase != "shadow" || !st.Paused {
		t.Fatalf("paused rollout must not advance: %+v", st)
	}
	if err := c.Pause("m", false); err != nil {
		t.Fatal(err)
	}
	st = ingestAPE(c, "m", 1, 5, 40)
	if st.Phase != "canary" {
		t.Fatalf("resumed rollout must gate again: %+v", st)
	}
	if err := c.ForceRollback("m"); err != nil {
		t.Fatal(err)
	}
	if st := c.Status("m"); st.Phase != "idle" || st.Rollbacks != 1 || len(st.Holddown) != 1 {
		t.Fatalf("after force-rollback: %+v", st)
	}

	// Force-promote a second rollout (v3; v2 is quarantined).
	c.Pin(ctx, "m", 3)
	if err := c.ForcePromote("m"); err != nil {
		t.Fatal(err)
	}
	if st := c.Status("m"); st.Phase != "idle" || st.Promotions != 1 {
		t.Fatalf("after force-promote: %+v", st)
	}
	if pin := c.Pin(ctx, "m", 3); pin != 0 {
		t.Fatalf("pin after force-promote = %d, want 0", pin)
	}
}
