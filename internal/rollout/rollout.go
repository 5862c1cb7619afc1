// Package rollout is the progressive-delivery controller for the
// online plane. A newly published model version is never served
// directly: it first shadow-scores live traffic (every admitted
// request is also scored by the candidate, predictions recorded but
// never returned), then canaries a deterministically-hashed traffic
// fraction through staged steps, and is promoted only when its
// windowed served-APE quantiles beat the incumbent's by the configured
// margin. A candidate that fails a gate is rolled back and quarantined
// for a hold-down period. All state transitions persist crash-safely
// through the registry, so a restarted server resumes the rollout
// where it left off instead of blindly serving the newest artifact.
//
// The controller keeps no accuracy data of its own: both sides' APE
// lives in the online plane's Ledger, and a gate window is a ledger
// cursor — the incumbent's taken when the rollout begins or resumes,
// the candidate's then and at every stage advance. The gate, its
// status and lam_served_ape therefore read the same samples, in
// windows of the ledger's capacity (lam-serve's -window).
package rollout

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"lam/internal/online"
	"lam/internal/registry"
	"lam/internal/telemetry"
)

// ErrNoRollout is returned by the operator actions (pause, promote,
// rollback) when the named model has no rollout in flight.
var ErrNoRollout = errors.New("rollout: no active rollout")

// Phase is where a candidate stands in the delivery pipeline.
type Phase int

const (
	// PhaseNone: no candidate in flight; "latest" resolves normally
	// (or to the pinned incumbent after a rollback).
	PhaseNone Phase = iota
	// PhaseShadow: candidate scores every admitted request, predictions
	// recorded, nothing served.
	PhaseShadow
	// PhaseCanary: candidate serves a hashed fraction of traffic.
	PhaseCanary
)

func (p Phase) String() string {
	switch p {
	case PhaseShadow:
		return "shadow"
	case PhaseCanary:
		return "canary"
	default:
		return "idle"
	}
}

// Persisted phase strings (registry.RolloutState.Phase).
const (
	phaseShadowStr = "shadow"
	phaseCanaryStr = "canary"
)

// Config tunes the delivery policy. The zero value is normalized to
// the defaults documented on each field.
type Config struct {
	// Stages are the canary traffic fractions, ascending in (0, 1].
	// Default 1%, 10%, 50%, 100%. A final 1.0 stage is appended when
	// missing so every rollout proves itself on full traffic before
	// the swap.
	Stages []float64
	// ShadowSamples is how many candidate-scored observation rows the
	// shadow gate needs before deciding. Default 64.
	ShadowSamples int
	// StageSamples is how many candidate-served observation rows each
	// canary gate needs. Default 64.
	StageSamples int
	// PromoteRatio is the bar: the candidate advances a gate only when
	// its windowed p50 and p90 APE are both <= PromoteRatio x the
	// incumbent's. Default 0.95 (a 5% margin).
	PromoteRatio float64
	// Holddown quarantines a rolled-back version from re-canarying.
	// Default 1h.
	Holddown time.Duration
	// Now is a test hook; defaults to time.Now.
	Now func() time.Time
}

func (c Config) normalized() Config {
	if len(c.Stages) == 0 {
		c.Stages = []float64{0.01, 0.10, 0.50, 1.0}
	}
	stages := make([]float64, 0, len(c.Stages)+1)
	prev := 0.0
	for _, f := range c.Stages {
		if f <= prev || f > 1 {
			continue
		}
		stages = append(stages, f)
		prev = f
	}
	if len(stages) == 0 || stages[len(stages)-1] < 1 {
		stages = append(stages, 1.0)
	}
	c.Stages = stages
	if c.ShadowSamples <= 0 {
		c.ShadowSamples = 64
	}
	if c.StageSamples <= 0 {
		c.StageSamples = 64
	}
	if c.PromoteRatio <= 0 || c.PromoteRatio > 1 {
		c.PromoteRatio = 0.95
	}
	if c.Holddown <= 0 {
		c.Holddown = time.Hour
	}
	return c
}

// Store is the persistence surface the controller needs; satisfied by
// *registry.Registry.
type Store interface {
	SaveRolloutState(registry.RolloutState) error
	LoadRolloutState(name string) (registry.RolloutState, bool, error)
}

// Controller runs one rollout state machine per model. The serving
// layer consults it on two paths: Pin on every version resolution
// (which is also where a newly published version begins its rollout),
// and ActiveView per request for the canary routing decision. Both are
// lock-free and allocation-free once a model's state is warm.
type Controller struct {
	cfg    Config
	store  Store
	ledger *online.Ledger

	// Load fetches a candidate's artifact; wired by the serving layer
	// so rollout candidates share its model cache and Workers setting
	// (shadow predictions must be bit-identical to serving the
	// candidate directly).
	Load func(ctx context.Context, name string, version int) (*registry.Model, error)
	// OnBegin fires when a candidate enters shadow — the serving layer
	// pauses background retraining so the comparison window is stable.
	OnBegin func(name string, candidate int)
	// OnPromote fires after a candidate wins its final gate and the
	// pin is released; the serving layer swaps "latest" forward and
	// resumes retraining.
	OnPromote func(name string, version int)
	// OnRollback fires after a candidate is quarantined.
	OnRollback func(name string, version int)
	// ShadowSink observes every shadow-scored batch (test hook for the
	// bit-identity contract). x and preds are valid only during the
	// call: both may be pooled request memory, so a sink that keeps
	// them must copy.
	ShadowSink func(name string, version int, x [][]float64, preds []float64)
	Log        *slog.Logger

	promotions atomic.Uint64
	rollbacks  atomic.Uint64

	models sync.Map // name -> *modelRollout
}

// New builds a controller persisting through store and gating on
// ledger, which must be the one the serving plane records the
// incumbent's observations into (online.Plane.Ledger). A gate needing
// more samples than the ledger's capacity can never decide.
func New(store Store, ledger *online.Ledger, cfg Config) *Controller {
	return &Controller{cfg: cfg.normalized(), store: store, ledger: ledger}
}

// Config returns the normalized policy.
func (c *Controller) Config() Config { return c.cfg }

// Promotions and Rollbacks are lifetime counters across all models,
// exposed as lam_rollout_*_total.
func (c *Controller) Promotions() uint64 { return c.promotions.Load() }
func (c *Controller) Rollbacks() uint64  { return c.rollbacks.Load() }

type modelRollout struct {
	name  string
	known atomic.Int64         // highest registry version already processed
	view  atomic.Pointer[View] // request-path snapshot; never nil once pinned once

	mu     sync.Mutex
	loaded bool // persisted state consulted
	st     registry.RolloutState
	cand   *registry.Model
	// incSince and candSince are the ledger cursors the gate reads the
	// incumbent's and the candidate's windows from.
	incSince, candSince   uint64
	promotions, rollbacks uint64
}

// View is the immutable per-request snapshot of one model's rollout.
// The request path reads it with a single atomic load; transitions
// publish a fresh View rather than mutating in place.
type View struct {
	Model       string
	Phase       Phase
	Stage       int
	Fraction    float64
	Paused      bool
	Pinned      int // version "latest" must resolve to; 0 = registry latest
	Candidate   *registry.Model
	candVersion int
	threshold   uint64
}

// Active reports whether a candidate is in flight.
func (v *View) Active() bool { return v != nil && v.Phase != PhaseNone }

// CandidateVersion returns the in-flight candidate's version (0 when idle).
func (v *View) CandidateVersion() int {
	if v == nil {
		return 0
	}
	return v.candVersion
}

// RouteRow reports whether the canary serves this single-row request.
// Deterministic in (model, candidate version, row): every replica
// agrees, and the answer never flaps within a stage.
func (v *View) RouteRow(x []float64) bool {
	if v == nil || v.Phase != PhaseCanary {
		return false
	}
	return assigned(RowHash(v.Model, v.candVersion, x), v.threshold)
}

// RouteBatch makes one decision for a whole batch request — a batch is
// served entirely by one version.
func (v *View) RouteBatch(rows [][]float64) bool {
	if v == nil || v.Phase != PhaseCanary {
		return false
	}
	return assigned(BatchHash(v.Model, v.candVersion, rows), v.threshold)
}

func (c *Controller) modelFor(name string) *modelRollout {
	if v, ok := c.models.Load(name); ok {
		return v.(*modelRollout)
	}
	v, _ := c.models.LoadOrStore(name, &modelRollout{name: name})
	return v.(*modelRollout)
}

// ActiveView returns the model's current rollout view, or nil when no
// candidate is in flight. Single atomic load on the hot path.
func (c *Controller) ActiveView(name string) *View {
	if c == nil {
		return nil
	}
	if v, ok := c.models.Load(name); ok {
		if view := v.(*modelRollout).view.Load(); view.Active() {
			return view
		}
	}
	return nil
}

// Pin resolves what "latest" means for name given the registry's
// newest version: the pinned incumbent's version while a rollout is in
// flight (or after a rollback whose bad candidate is still newest on
// disk), or 0 to serve the registry latest directly. Seeing a version
// newer than any processed so far is what begins a rollout, so the
// serving layer must route every latest-resolution through here.
func (c *Controller) Pin(ctx context.Context, name string, latest int) int {
	if c == nil || latest <= 0 {
		return 0
	}
	if v, ok := c.models.Load(name); ok {
		m := v.(*modelRollout)
		if int64(latest) <= m.known.Load() {
			if view := m.view.Load(); view != nil {
				return view.Pinned
			}
		}
	}
	return c.pinSlow(ctx, name, latest)
}

func (c *Controller) pinSlow(ctx context.Context, name string, latest int) int {
	m := c.modelFor(name)
	var after []func()
	m.mu.Lock()
	c.loadStateLocked(m)
	c.resumeLocked(ctx, m, &after)
	if int64(latest) > m.known.Load() {
		c.observeVersionLocked(ctx, m, latest, &after)
		m.known.Store(int64(latest))
	}
	m.view.Store(c.viewLocked(m))
	pin := m.st.Pinned
	m.mu.Unlock()
	for _, f := range after {
		f()
	}
	return pin
}

// loadStateLocked lazily consults the persisted rollout state, once.
func (c *Controller) loadStateLocked(m *modelRollout) {
	if m.loaded {
		return
	}
	m.loaded = true
	m.st = registry.RolloutState{Model: m.name}
	if c.store == nil {
		return
	}
	st, ok, err := c.store.LoadRolloutState(m.name)
	if err != nil {
		// A corrupt state file must not take serving down; log and
		// start fresh (the pin is lost, which is the pre-rollout
		// behavior, not a crash).
		c.logf("rollout state load failed", "model", m.name, "err", err)
		return
	}
	if ok {
		m.st = st
		m.st.Model = m.name
		known := int64(max(m.st.Pinned, m.st.Candidate))
		if known > m.known.Load() {
			m.known.Store(known)
		}
	}
}

// resumeLocked re-arms an active persisted rollout after a restart:
// the candidate artifact is reloaded and evaluation windows start
// empty at fresh cursors (the ledger is in-memory by design — stale
// pre-crash samples would judge the candidate on traffic it no longer
// sees).
func (c *Controller) resumeLocked(ctx context.Context, m *modelRollout, after *[]func()) {
	if m.st.Candidate == 0 || m.cand != nil {
		return
	}
	cm, err := c.loadModel(ctx, m.name, m.st.Candidate)
	if err != nil {
		c.rollbackLocked(m, fmt.Sprintf("candidate artifact load failed: %v", err), after)
		return
	}
	m.cand = cm
	c.armLocked(m)
	if cb := c.OnBegin; cb != nil {
		name, ver := m.name, m.st.Candidate
		*after = append(*after, func() { cb(name, ver) })
	}
}

// observeVersionLocked reacts to a registry version newer than any
// processed so far.
func (c *Controller) observeVersionLocked(ctx context.Context, m *modelRollout, latest int, after *[]func()) {
	switch {
	case m.st.Candidate != 0:
		if latest > m.st.Candidate {
			// An even newer version appeared mid-rollout (out-of-band
			// publish). The in-flight candidate is obsolete: cancel it
			// without quarantine and evaluate the newcomer instead.
			c.cancelLocked(m, fmt.Sprintf("v%d superseded by v%d", m.st.Candidate, latest), after)
			c.beginLocked(ctx, m, latest, after)
		}
	case m.st.Pinned == 0 && m.known.Load() == 0:
		// Bootstrap: first version(s) this controller has ever seen for
		// the model, with no rollout history. There is no incumbent to
		// compare against, so the registry latest serves directly.
	default:
		c.beginLocked(ctx, m, latest, after)
	}
}

// beginLocked starts a rollout of candidate against the current
// incumbent, unless the candidate is quarantined or fails to load.
func (c *Controller) beginLocked(ctx context.Context, m *modelRollout, candidate int, after *[]func()) {
	if c.inHolddownLocked(m, candidate) {
		return
	}
	incumbent := m.st.Pinned
	if incumbent == 0 {
		incumbent = int(m.known.Load())
	}
	if incumbent <= 0 || incumbent >= candidate {
		return
	}
	cm, err := c.loadModel(ctx, m.name, candidate)
	if err != nil {
		// An unloadable artifact is quarantined like a failed gate:
		// without a hold-down every subsequent request would retry the
		// load on the slow path. The pin moves to the incumbent so
		// "latest" keeps resolving to the last good version instead of
		// the artifact that just failed to load.
		m.st.Pinned = incumbent
		m.st.Holddown = append(m.st.Holddown, registry.HolddownEntry{
			Version: candidate,
			Until:   c.now().Add(c.cfg.Holddown),
			Reason:  fmt.Sprintf("artifact load failed: %v", err),
		})
		m.st.LastTransition = fmt.Sprintf("refused v%d: artifact load failed", candidate)
		c.persistLocked(m)
		c.logf("rollout candidate load failed", "model", m.name, "version", candidate, "err", err)
		return
	}
	m.cand = cm
	m.st.Pinned = incumbent
	m.st.Candidate = candidate
	m.st.Phase = phaseShadowStr
	m.st.Stage = 0
	m.st.Paused = false
	c.armLocked(m)
	m.st.LastTransition = fmt.Sprintf("shadowing v%d against incumbent v%d", candidate, incumbent)
	c.persistLocked(m)
	c.logf("rollout began", "model", m.name, "candidate", candidate, "incumbent", incumbent)
	if cb := c.OnBegin; cb != nil {
		name := m.name
		*after = append(*after, func() { cb(name, candidate) })
	}
}

// armLocked starts both evaluation windows at the ledger's current
// sequences, holding the two rings against eviction.
func (c *Controller) armLocked(m *modelRollout) {
	m.incSince = c.ledger.Cursor(m.name, m.st.Pinned)
	m.candSince = c.ledger.Cursor(m.name, m.st.Candidate)
}

// disarmLocked ends the in-flight candidate's evaluation: the artifact
// is dropped and both rings' holds released.
func (c *Controller) disarmLocked(m *modelRollout) {
	c.ledger.Release(m.name, m.st.Pinned)
	c.ledger.Release(m.name, m.st.Candidate)
	m.cand = nil
}

// cancelLocked drops the in-flight candidate without quarantine (used
// when a newer publish supersedes it). The pin is kept: the canceled
// candidate may still be the newest artifact on disk for a moment.
func (c *Controller) cancelLocked(m *modelRollout, reason string, after *[]func()) {
	ver := m.st.Candidate
	c.disarmLocked(m)
	m.st.Candidate = 0
	m.st.Phase = ""
	m.st.Stage = 0
	m.st.Paused = false
	m.st.LastTransition = reason
	c.persistLocked(m)
	if cb := c.OnRollback; cb != nil && ver != 0 {
		name := m.name
		*after = append(*after, func() { cb(name, ver) })
	}
}

// Ingest records the rows the in-flight candidate scored — every row
// in shadow, its hash share in canary — into the ledger under the
// candidate's version, then runs the current gate. The incumbent's
// rows reach the ledger through online.Plane.Observe. At most one state
// transition happens per call, so a replayed stream observes every
// stage. Returns the post-ingest status.
func (c *Controller) Ingest(ctx context.Context, name string, observed, predicted []float64) Status {
	m := c.modelFor(name)
	sp := telemetry.StartSpan(ctx, "rollout")
	var after []func()
	m.mu.Lock()
	if m.st.Candidate == 0 || m.cand == nil {
		st := c.statusLocked(m)
		m.mu.Unlock()
		sp.EndDetail("idle")
		return st
	}
	c.ledger.Record(name, m.st.Candidate, observed, predicted)
	if !m.st.Paused {
		c.gateLocked(m, &after)
	}
	st := c.statusLocked(m)
	m.view.Store(c.viewLocked(m))
	m.mu.Unlock()
	for _, f := range after {
		f()
	}
	sp.EndDetail(st.Phase)
	return st
}

// gateLocked evaluates the current gate once both windows hold enough
// samples: the candidate advances (shadow -> canary 0 -> ... -> final
// stage -> promote) when its p50 and p90 APE both beat the incumbent's
// by the configured ratio, and rolls back the moment they don't.
func (c *Controller) gateLocked(m *modelRollout, after *[]func()) {
	need := c.cfg.ShadowSamples
	if m.st.Phase == phaseCanaryStr {
		need = c.cfg.StageSamples
	}
	cq, iq := c.windowsLocked(m)
	if cq.Count < need || iq.Count < need {
		return
	}
	beats := cq.P50 <= c.cfg.PromoteRatio*iq.P50 && cq.P90 <= c.cfg.PromoteRatio*iq.P90
	gate := m.st.Phase
	if gate == phaseCanaryStr {
		gate = fmt.Sprintf("canary stage %d (%.0f%%)", m.st.Stage, 100*c.stageFraction(m.st.Stage))
	}
	if !beats {
		c.rollbackLocked(m, fmt.Sprintf(
			"%s gate: candidate p50/p90 APE %.2f/%.2f vs incumbent %.2f/%.2f (need <= %.2fx)",
			gate, cq.P50, cq.P90, iq.P50, iq.P90, c.cfg.PromoteRatio), after)
		return
	}
	switch m.st.Phase {
	case phaseShadowStr:
		m.st.Phase = phaseCanaryStr
		m.st.Stage = 0
		// The candidate's shadow window judged it on traffic it was not
		// serving; each canary gate re-proves it on the traffic it is.
		m.candSince = c.ledger.Cursor(m.name, m.st.Candidate)
		m.st.LastTransition = fmt.Sprintf("v%d passed shadow, canary stage 0 (%.0f%%)",
			m.st.Candidate, 100*c.stageFraction(0))
		c.persistLocked(m)
		c.logf("rollout advanced", "model", m.name, "candidate", m.st.Candidate, "to", m.st.LastTransition)
	case phaseCanaryStr:
		if m.st.Stage+1 >= len(c.cfg.Stages) {
			c.promoteLocked(m, fmt.Sprintf("promoted v%d (won %s)", m.st.Candidate, gate), after)
			return
		}
		m.st.Stage++
		m.candSince = c.ledger.Cursor(m.name, m.st.Candidate)
		m.st.LastTransition = fmt.Sprintf("v%d advanced to canary stage %d (%.0f%%)",
			m.st.Candidate, m.st.Stage, 100*c.stageFraction(m.st.Stage))
		c.persistLocked(m)
		c.logf("rollout advanced", "model", m.name, "candidate", m.st.Candidate, "to", m.st.LastTransition)
	}
}

func (c *Controller) promoteLocked(m *modelRollout, reason string, after *[]func()) {
	ver := m.st.Candidate
	c.disarmLocked(m)
	m.st = registry.RolloutState{
		Model:          m.name,
		Holddown:       c.pruneHolddown(m.st.Holddown),
		LastTransition: reason,
	}
	m.promotions++
	c.promotions.Add(1)
	c.persistLocked(m)
	c.logf("rollout promoted", "model", m.name, "version", ver)
	if cb := c.OnPromote; cb != nil {
		name := m.name
		*after = append(*after, func() { cb(name, ver) })
	}
}

func (c *Controller) rollbackLocked(m *modelRollout, reason string, after *[]func()) {
	ver := m.st.Candidate
	c.disarmLocked(m)
	m.st.Candidate = 0
	m.st.Phase = ""
	m.st.Stage = 0
	m.st.Paused = false
	m.st.Holddown = append(c.pruneHolddown(m.st.Holddown), registry.HolddownEntry{
		Version: ver,
		Until:   c.now().Add(c.cfg.Holddown),
		Reason:  reason,
	})
	m.st.LastTransition = fmt.Sprintf("rolled back v%d: %s", ver, reason)
	m.rollbacks++
	c.rollbacks.Add(1)
	c.persistLocked(m)
	c.logf("rollout rolled back", "model", m.name, "version", ver, "reason", reason)
	if cb := c.OnRollback; cb != nil {
		name := m.name
		*after = append(*after, func() { cb(name, ver) })
	}
}

// Pause freezes (or unfreezes) automatic gate transitions; traffic
// keeps flowing at the current stage fraction.
func (c *Controller) Pause(name string, paused bool) error {
	return c.action(name, func(m *modelRollout, _ *[]func()) {
		m.st.Paused = paused
		verb := "paused"
		if !paused {
			verb = "resumed"
		}
		m.st.LastTransition = fmt.Sprintf("%s v%d by operator", verb, m.st.Candidate)
		c.persistLocked(m)
	})
}

// ForcePromote promotes the in-flight candidate immediately.
func (c *Controller) ForcePromote(name string) error {
	return c.action(name, func(m *modelRollout, after *[]func()) {
		c.promoteLocked(m, fmt.Sprintf("force-promoted v%d by operator", m.st.Candidate), after)
	})
}

// ForceRollback quarantines the in-flight candidate immediately.
func (c *Controller) ForceRollback(name string) error {
	return c.action(name, func(m *modelRollout, after *[]func()) {
		c.rollbackLocked(m, "forced by operator", after)
	})
}

func (c *Controller) action(name string, fn func(m *modelRollout, after *[]func())) error {
	v, ok := c.models.Load(name)
	if !ok {
		return ErrNoRollout
	}
	m := v.(*modelRollout)
	var after []func()
	m.mu.Lock()
	if m.st.Candidate == 0 {
		m.mu.Unlock()
		return ErrNoRollout
	}
	fn(m, &after)
	m.view.Store(c.viewLocked(m))
	m.mu.Unlock()
	for _, f := range after {
		f()
	}
	return nil
}

// Status is the externally visible rollout state of one model,
// returned by GET /models/{name}/rollout and embedded in /observe
// responses while a rollout is active.
type Status struct {
	Model           string                   `json:"model"`
	Phase           string                   `json:"phase"`
	Stage           int                      `json:"stage"`
	Stages          []float64                `json:"stages,omitempty"`
	Fraction        float64                  `json:"fraction"`
	Paused          bool                     `json:"paused,omitempty"`
	Incumbent       int                      `json:"incumbent,omitempty"`
	Candidate       int                      `json:"candidate,omitempty"`
	NeedSamples     int                      `json:"need_samples,omitempty"`
	PromoteRatio    float64                  `json:"promote_ratio,omitempty"`
	CandidateWindow online.APEQuantiles      `json:"candidate_window"`
	IncumbentWindow online.APEQuantiles      `json:"incumbent_window"`
	Promotions      uint64                   `json:"promotions"`
	Rollbacks       uint64                   `json:"rollbacks"`
	Holddown        []registry.HolddownEntry `json:"holddown,omitempty"`
	LastTransition  string                   `json:"last_transition,omitempty"`
}

// Status reports the model's current rollout state (idle status for a
// model the controller has never pinned).
func (c *Controller) Status(name string) Status {
	v, ok := c.models.Load(name)
	if !ok {
		return Status{Model: name, Phase: PhaseNone.String(), PromoteRatio: c.cfg.PromoteRatio}
	}
	m := v.(*modelRollout)
	m.mu.Lock()
	defer m.mu.Unlock()
	return c.statusLocked(m)
}

// Snapshot returns the status of every model the controller tracks,
// for scrape-time telemetry collectors.
func (c *Controller) Snapshot() []Status {
	var out []Status
	c.models.Range(func(_, v any) bool {
		m := v.(*modelRollout)
		m.mu.Lock()
		out = append(out, c.statusLocked(m))
		m.mu.Unlock()
		return true
	})
	return out
}

func (c *Controller) statusLocked(m *modelRollout) Status {
	st := Status{
		Model:          m.name,
		Phase:          PhaseNone.String(),
		Incumbent:      m.st.Pinned,
		Candidate:      m.st.Candidate,
		PromoteRatio:   c.cfg.PromoteRatio,
		Promotions:     m.promotions,
		Rollbacks:      m.rollbacks,
		Holddown:       m.st.Holddown,
		LastTransition: m.st.LastTransition,
		Paused:         m.st.Paused,
	}
	if m.st.Candidate != 0 {
		st.Stages = c.cfg.Stages
		switch m.st.Phase {
		case phaseCanaryStr:
			st.Phase = PhaseCanary.String()
			st.Stage = m.st.Stage
			st.Fraction = c.stageFraction(m.st.Stage)
			st.NeedSamples = c.cfg.StageSamples
		default:
			st.Phase = PhaseShadow.String()
			st.NeedSamples = c.cfg.ShadowSamples
		}
		st.CandidateWindow, st.IncumbentWindow = c.windowsLocked(m)
	}
	return st
}

// windowsLocked reads the candidate's and the incumbent's gate windows:
// each version's ledger samples from its cursor on.
func (c *Controller) windowsLocked(m *modelRollout) (cand, inc online.APEQuantiles) {
	return c.ledger.Quantiles(m.name, m.st.Candidate, m.candSince),
		c.ledger.Quantiles(m.name, m.st.Pinned, m.incSince)
}

// viewLocked builds the immutable request-path snapshot.
func (c *Controller) viewLocked(m *modelRollout) *View {
	v := &View{Model: m.name, Pinned: m.st.Pinned, Paused: m.st.Paused}
	if m.st.Candidate != 0 && m.cand != nil {
		v.Candidate = m.cand
		v.candVersion = m.st.Candidate
		if m.st.Phase == phaseCanaryStr {
			v.Phase = PhaseCanary
			v.Stage = m.st.Stage
			v.Fraction = c.stageFraction(m.st.Stage)
			v.threshold = thresholdFor(v.Fraction)
		} else {
			v.Phase = PhaseShadow
		}
	}
	return v
}

func (c *Controller) stageFraction(stage int) float64 {
	if stage < 0 || stage >= len(c.cfg.Stages) {
		return 1.0
	}
	return c.cfg.Stages[stage]
}

func (c *Controller) inHolddownLocked(m *modelRollout, version int) bool {
	m.st.Holddown = c.pruneHolddown(m.st.Holddown)
	for _, h := range m.st.Holddown {
		if h.Version == version {
			return true
		}
	}
	return false
}

func (c *Controller) pruneHolddown(hs []registry.HolddownEntry) []registry.HolddownEntry {
	now := c.now()
	out := hs[:0]
	for _, h := range hs {
		if h.Until.After(now) {
			out = append(out, h)
		}
	}
	return out
}

func (c *Controller) persistLocked(m *modelRollout) {
	if c.store == nil {
		return
	}
	if err := c.store.SaveRolloutState(m.st); err != nil {
		// Never let a disk hiccup take the serving path down; the
		// in-memory state machine stays authoritative until the next
		// successful persist.
		c.logf("rollout state persist failed", "model", m.name, "err", err)
	}
}

func (c *Controller) loadModel(ctx context.Context, name string, version int) (*registry.Model, error) {
	if c.Load == nil {
		return nil, errors.New("rollout: no artifact loader wired")
	}
	return c.Load(ctx, name, version)
}

func (c *Controller) now() time.Time {
	if c.cfg.Now != nil {
		return c.cfg.Now()
	}
	return time.Now()
}

func (c *Controller) logf(msg string, kv ...any) {
	if c.Log != nil {
		c.Log.Info(msg, kv...)
	}
}
