package online

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"

	"lam/internal/dataset"
	"lam/internal/hybrid"
	"lam/internal/lamerr"
	"lam/internal/machine"
	"lam/internal/ml"
	"lam/internal/registry"
	"lam/internal/telemetry"
	"lam/internal/workload"
	"lam/internal/xmath"
)

// ErrRetrainInFlight reports an on-demand retrain request for a model
// that is already retraining — the plane bounds retraining to one run
// in flight per model.
var ErrRetrainInFlight = errors.New("retrain already in flight")

// Config tunes the plane. The zero value is usable: a 512-sample
// window per model, default detector thresholds, automatic retraining
// enabled.
type Config struct {
	// WindowSize is the per-model observation ring capacity and the
	// per-version APE ring capacity of the Ledger. 0 means 512.
	WindowSize int
	// Detector tunes drift detection.
	Detector DetectorConfig
	// DisableRetrain turns off automatic background retraining on
	// drift trips (ingest and detection keep running; RetrainNow still
	// works). Named negatively so the zero Config adapts.
	DisableRetrain bool
	// HoldoutFraction is the share of the window held out of retraining
	// to judge old vs. new model on fresh-distribution data. 0 means 0.25.
	HoldoutFraction float64
	// BaseData rebuilds a model's original training set for merging
	// with the window. nil means the canonical workload dataset named
	// by the model's metadata, resampled to its recorded TrainSize —
	// the same distribution, not necessarily the same rows; callers
	// that still hold the true training set should supply it here.
	// Returning (nil, nil) retrains on the window alone.
	BaseData func(meta registry.Meta) (*dataset.Dataset, error)
	// Seed drives holdout splits, base resampling and retrain model
	// seeds (derived per model version, so reruns are deterministic).
	Seed int64
	// Workers bounds retraining parallelism; <= 0 means GOMAXPROCS.
	Workers int
}

func (c Config) normalized() Config {
	if c.WindowSize <= 0 {
		c.WindowSize = 512
	}
	c.Detector = c.Detector.normalized()
	// A window smaller than the detector's min-sample guard could
	// never trip it — the plane would silently be inert. Clamp up.
	if c.WindowSize < c.Detector.MinSamples {
		c.WindowSize = c.Detector.MinSamples
	}
	if c.HoldoutFraction <= 0 || c.HoldoutFraction >= 1 {
		c.HoldoutFraction = 0.25
	}
	return c
}

// Status is a point-in-time view of one model's adaptation state: the
// sliding window, the detector, and the retrain history. It is the
// JSON body of lam-serve's GET /models/{name}/drift.
type Status struct {
	Model string `json:"model"`
	// Version is the served version the status was taken against.
	Version int         `json:"version"`
	Window  WindowStats `json:"window"`
	// BaselineMAPE is the served model's registry-recorded test MAPE.
	BaselineMAPE float64 `json:"baseline_mape"`
	// ThresholdMAPE is the windowed MAPE that trips the detector.
	ThresholdMAPE     float64 `json:"threshold_mape"`
	Tripped           bool    `json:"tripped"`
	Retraining        bool    `json:"retraining"`
	Trips             uint64  `json:"trips"`
	RetrainsStarted   uint64  `json:"retrains_started"`
	RetrainsPublished uint64  `json:"retrains_published"`
	RetrainsDiscarded uint64  `json:"retrains_discarded"`
	// LastTripMAPE is the windowed MAPE at the most recent trip.
	LastTripMAPE float64 `json:"last_trip_mape,omitempty"`
	// PreSwapMAPE is the windowed MAPE immediately before the most
	// recent publish — compare with Window.MAPE after the swap for the
	// before/after adaptation delta.
	PreSwapMAPE float64 `json:"pre_swap_mape,omitempty"`
	// LastPublished is the metadata of the most recent version this
	// plane published for the model.
	LastPublished *registry.Meta `json:"last_published,omitempty"`
	// LastError is the most recent retrain failure, if any.
	LastError string `json:"last_error,omitempty"`
}

// Counters aggregates the plane's lifetime activity across models, for
// lam-serve's GET /metrics.
type Counters struct {
	Observations      uint64 `json:"observations"`
	Trips             uint64 `json:"trips"`
	RetrainsStarted   uint64 `json:"retrains_started"`
	RetrainsPublished uint64 `json:"retrains_published"`
	RetrainsDiscarded uint64 `json:"retrains_discarded"`
	RetrainErrors     uint64 `json:"retrain_errors"`
}

// modelState is the per-model adaptation state. mu guards every field;
// the long-running retrain itself runs outside the lock.
type modelState struct {
	mu         sync.Mutex
	window     *window
	det        detector
	retraining bool
	// paused suppresses detector-triggered retrains while a rollout is
	// evaluating a candidate: publishing a second new version mid-canary
	// would invalidate the comparison window. Set via SetRetrainPaused.
	paused bool

	trips, started, published, discarded, errs uint64
	lastTripMAPE                               float64
	preSwapMAPE                                float64
	lastPublished                              *registry.Meta
	lastError                                  string

	// retrainBarrier silences the detector until the window's lifetime
	// total reaches it: set after a discarded or failed retrain, so the
	// re-armed detector cannot re-trip (and re-retrain) until MinSamples
	// fresh observations have arrived. Without it a failed attempt would
	// either latch the detector tripped forever (no retry) or retry on
	// every batch (a retrain storm).
	retrainBarrier uint64
}

// Plane is the online adaptation coordinator: one ingest window and
// drift detector per model name, the per-version accuracy ledger, plus
// the background retrainer. All methods are safe for concurrent use.
type Plane struct {
	cfg    Config
	reg    *registry.Registry
	ledger *Ledger

	// OnPublish, if set, is called (outside any plane lock) after a
	// retrained version is published — internal/serve hooks its hot
	// swap here. Set it before the first Observe.
	OnPublish func(meta registry.Meta)
	// Tracer, if set, records each background retrain as a trace
	// (spans: fit, judge, publish) in the process's /trace/recent ring.
	// serve.AttachOnline defaults it to the server's recorder.
	Tracer *telemetry.Recorder
	// Log, if set, receives retrain outcomes as structured log lines.
	Log *slog.Logger

	mu     sync.Mutex
	models map[string]*modelState
	// closed (guarded by mu) refuses new retrain spawns once Close has
	// begun, so wg.Add can never race wg.Wait.
	closed bool

	observations atomic.Uint64

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// New returns a plane that retrains into (and republishes through) reg.
func New(reg *registry.Registry, cfg Config) *Plane {
	ctx, cancel := context.WithCancel(context.Background())
	cfg = cfg.normalized()
	return &Plane{
		cfg:    cfg,
		reg:    reg,
		ledger: NewLedger(cfg.WindowSize),
		models: make(map[string]*modelState),
		ctx:    ctx,
		cancel: cancel,
	}
}

// Ledger returns the accuracy ledger Observe records every row's APE
// into, under the version that served it (WindowSize samples a ring).
func (p *Plane) Ledger() *Ledger { return p.ledger }

// Close cancels in-flight retrains and waits for them to exit.
// Concurrent Observe/RetrainNow calls remain safe: once Close has
// begun they can no longer spawn a retrain (the trip still registers;
// a fresh plane would pick it up).
func (p *Plane) Close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.cancel()
	p.wg.Wait()
}

func (p *Plane) state(name string) *modelState {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := p.models[name]
	if st == nil {
		st = &modelState{
			window: newWindow(p.cfg.WindowSize),
			det:    detector{cfg: p.cfg.Detector},
		}
		p.models[name] = st
	}
	return st
}

// Observe ingests ground-truth observations for the served model m:
// X[i] was scored as predicted[i] and then measured as observed[i].
// It updates the model's sliding window and drift detector and — when
// the detector fires and retraining is enabled — kicks off a
// background retrain (at most one in flight per model). The returned
// Status reflects the state after ingest.
func (p *Plane) Observe(m *registry.Model, X [][]float64, predicted, observed []float64) (Status, error) {
	if len(X) != len(predicted) || len(X) != len(observed) {
		return Status{}, fmt.Errorf("online: %w: %d rows, %d predictions, %d observations",
			lamerr.ErrDimension, len(X), len(predicted), len(observed))
	}
	// A single non-finite value would poison the window's rolling MAPE
	// (and with it the detector and every JSON status) for up to
	// WindowSize samples; refuse the whole batch instead.
	for i := range X {
		if math.IsNaN(predicted[i]) || math.IsInf(predicted[i], 0) ||
			math.IsNaN(observed[i]) || math.IsInf(observed[i], 0) {
			return Status{}, fmt.Errorf("online: %w: sample %d is not finite (predicted %v, observed %v)",
				lamerr.ErrBadRequest, i, predicted[i], observed[i])
		}
	}
	p.ledger.Record(m.Meta.Name, m.Meta.Version, observed, predicted)
	st := p.state(m.Meta.Name)
	st.mu.Lock()
	defer st.mu.Unlock()
	for i := range X {
		st.window.add(X[i], predicted[i], observed[i])
	}
	p.observations.Add(uint64(len(X)))
	ws := st.window.stats()
	if ws.Total >= st.retrainBarrier {
		if fired := st.det.update(ws.MAPE, m.Meta.TestMAPE, ws.Count); fired {
			st.trips++
			st.lastTripMAPE = ws.MAPE
			if !p.cfg.DisableRetrain && !st.paused {
				p.startRetrainLocked(st, m)
			}
		}
	}
	return p.statusLocked(st, m, ws), nil
}

// SetRetrainPaused suppresses (or re-enables) detector-triggered
// retrains for name. The rollout controller pauses the plane while a
// candidate is under evaluation and resumes it after promotion or
// rollback; observations keep flowing into the window either way.
func (p *Plane) SetRetrainPaused(name string, paused bool) {
	st := p.state(name)
	st.mu.Lock()
	st.paused = paused
	st.mu.Unlock()
}

// ResetWindow clears name's observation window and re-arms its drift
// detector. Called after a rollout resolves: the window mixed the
// incumbent's predictions with rollout-era traffic, and judging the
// post-rollout model on it would double-count drift that has already
// been acted on.
func (p *Plane) ResetWindow(name string) {
	st := p.state(name)
	st.mu.Lock()
	st.window.reset()
	st.det.reset()
	st.mu.Unlock()
}

// Status reports the adaptation state of the served model m.
func (p *Plane) Status(m *registry.Model) Status {
	st := p.state(m.Meta.Name)
	st.mu.Lock()
	defer st.mu.Unlock()
	return p.statusLocked(st, m, st.window.stats())
}

func (p *Plane) statusLocked(st *modelState, m *registry.Model, ws WindowStats) Status {
	return Status{
		Model:             m.Meta.Name,
		Version:           m.Meta.Version,
		Window:            ws,
		BaselineMAPE:      m.Meta.TestMAPE,
		ThresholdMAPE:     p.cfg.Detector.threshold(m.Meta.TestMAPE),
		Tripped:           st.det.tripped,
		Retraining:        st.retraining,
		Trips:             st.trips,
		RetrainsStarted:   st.started,
		RetrainsPublished: st.published,
		RetrainsDiscarded: st.discarded,
		LastTripMAPE:      st.lastTripMAPE,
		PreSwapMAPE:       st.preSwapMAPE,
		LastPublished:     st.lastPublished,
		LastError:         st.lastError,
	}
}

// Counters aggregates lifetime activity across every model.
func (p *Plane) Counters() Counters {
	c := Counters{Observations: p.observations.Load()}
	p.mu.Lock()
	states := make([]*modelState, 0, len(p.models))
	for _, st := range p.models {
		states = append(states, st)
	}
	p.mu.Unlock()
	for _, st := range states {
		st.mu.Lock()
		c.Trips += st.trips
		c.RetrainsStarted += st.started
		c.RetrainsPublished += st.published
		c.RetrainsDiscarded += st.discarded
		c.RetrainErrors += st.errs
		st.mu.Unlock()
	}
	return c
}

// RetrainNow starts a background retrain of the served model m without
// waiting for the detector (the "on demand" path). It returns
// ErrRetrainInFlight if one is already running for the model, and an
// error (not a silent no-op) if the plane has been closed.
func (p *Plane) RetrainNow(m *registry.Model) error {
	st := p.state(m.Meta.Name)
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.retraining {
		return fmt.Errorf("online: %s: %w", m.Meta.Name, ErrRetrainInFlight)
	}
	if !p.startRetrainLocked(st, m) {
		return fmt.Errorf("online: %s: plane is closed", m.Meta.Name)
	}
	return nil
}

// startRetrainLocked marks the model retraining and spawns the
// background run, reporting whether it did (false once the plane is
// closed or a run is already in flight). Caller holds st.mu; the
// retraining flag is what bounds the plane to one retrain in flight
// per model. The wg.Add happens under p.mu against the closed flag
// (p.mu nests inside st.mu here; nothing takes them in the other
// order), so a concurrent Close can never see Add racing its Wait.
func (p *Plane) startRetrainLocked(st *modelState, m *registry.Model) bool {
	if st.retraining {
		return false
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return false
	}
	p.wg.Add(1)
	p.mu.Unlock()
	st.retraining = true
	st.started++
	go p.retrain(st, m)
	return true
}

// retrain runs one background retraining attempt and records its
// outcome. Cancellation (plane Close) is silent; real failures land in
// the model's LastError. A discarded or failed attempt re-arms the
// detector behind a fresh-observation barrier, so adaptation retries
// once MinSamples new samples have arrived instead of latching off —
// by then the window is also fuller than at the failed attempt.
func (p *Plane) retrain(st *modelState, old *registry.Model) {
	defer p.wg.Done()
	tr := p.Tracer.Start("retrain")
	tr.SetModel(old.Meta.Name, old.Meta.Version)
	ctx := telemetry.WithTrace(p.ctx, tr)
	published, err := p.retrainOnce(ctx, st, old)
	p.Tracer.Finish(tr)
	if p.Log != nil {
		switch {
		case err != nil && errors.Is(err, lamerr.ErrCancelled):
			// Shutdown, not an outcome.
		case err != nil:
			p.Log.Warn("retrain failed", "model", old.Meta.Name, "version", old.Meta.Version,
				"trace_id", tr.ID().String(), "error", err)
		case published:
			p.Log.Info("retrain published", "model", old.Meta.Name, "from_version", old.Meta.Version,
				"trace_id", tr.ID().String())
		default:
			p.Log.Info("retrain discarded", "model", old.Meta.Name, "version", old.Meta.Version,
				"trace_id", tr.ID().String())
		}
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	st.retraining = false
	if err != nil && errors.Is(err, lamerr.ErrCancelled) {
		return
	}
	if err != nil {
		st.errs++
		st.lastError = err.Error()
	}
	if !published {
		st.det.reset()
		st.retrainBarrier = st.window.total + uint64(p.cfg.Detector.MinSamples)
	}
}

// retrainOnce merges the observation window with the model's original
// training set, fits a replacement in the background, judges old vs.
// new on a held-out slice of the window, and publishes the new version
// only if it improves.
func (p *Plane) retrainOnce(ctx context.Context, st *modelState, old *registry.Model) (published bool, err error) {
	st.mu.Lock()
	samples := st.window.snapshot()
	st.mu.Unlock()
	if len(samples) < p.cfg.Detector.MinSamples {
		return false, fmt.Errorf("online: %s: window holds %d samples, need %d to retrain",
			old.Meta.Name, len(samples), p.cfg.Detector.MinSamples)
	}

	// Deterministic per-(seed, version) randomness: reruns of the same
	// publish sequence split and fit identically.
	seed := int64(xmath.Hash64(uint64(p.cfg.Seed), uint64(old.Meta.Version)))
	rng := rand.New(rand.NewSource(seed))

	// Hold out a slice of the window — fresh-distribution data — to
	// judge both models on; train on the rest plus the original set.
	holdN := int(p.cfg.HoldoutFraction*float64(len(samples)) + 0.5)
	if holdN < 1 {
		holdN = 1
	}
	if holdN >= len(samples) {
		holdN = len(samples) - 1
	}
	perm := rng.Perm(len(samples))
	holdX := make([][]float64, holdN)
	holdY := make([]float64, holdN)
	for i, j := range perm[:holdN] {
		holdX[i] = samples[j].X
		holdY[i] = samples[j].Observed
	}

	// The base size is the *original* (pre-adaptation) training-set
	// size, carried across generations: resampling at the previous
	// retrain's merged TrainSize would grow the source-distribution
	// draw every generation and drown the window out.
	baseSize := old.Meta.BaseSize
	if baseSize == 0 {
		baseSize = old.Meta.TrainSize
	}
	merged, err := p.baseFor(old.Meta, baseSize, rng, len(samples[0].X))
	if err != nil {
		return false, err
	}
	for _, j := range perm[holdN:] {
		if err := merged.Add(samples[j].X, samples[j].Observed); err != nil {
			return false, fmt.Errorf("online: merging window into training set: %w", err)
		}
	}

	jsp := telemetry.StartSpan(ctx, "judge")
	oldMAPE, err := modelMAPE(ctx, old, holdX, holdY)
	jsp.End()
	if err != nil {
		return false, err
	}

	meta := old.Meta
	meta.TrainSize = merged.Len()
	meta.BaseSize = baseSize
	var publish func() (registry.Meta, error)
	var newMAPE float64
	// The fit span covers training the candidate and judging it on the
	// holdout; it ends only on the success path — an error abandons the
	// whole trace's usefulness anyway.
	fsp := telemetry.StartSpan(ctx, "fit")
	switch old.Meta.Kind {
	case registry.KindHybrid:
		am, err := registry.AnalyticalFor(old.Meta)
		if err != nil {
			return false, err
		}
		cfg := old.Hybrid().Config()
		cfg.Seed = seed
		cfg.Workers = p.cfg.Workers
		hy, err := hybrid.TrainCtx(ctx, merged, am, cfg)
		if err != nil {
			return false, err
		}
		if newMAPE, err = hybridMAPE(ctx, hy, holdX, holdY); err != nil {
			return false, err
		}
		publish = func() (registry.Meta, error) { return p.reg.SaveHybrid(hy, meta) }
	case registry.KindRegressor:
		et := ml.NewExtraTrees(100, seed)
		et.Workers = p.cfg.Workers
		reg := &ml.Pipeline{Model: et}
		if err := reg.FitCtx(ctx, merged.X, merged.Y); err != nil {
			return false, err
		}
		if newMAPE, err = regressorMAPE(ctx, reg, holdX, holdY); err != nil {
			return false, err
		}
		publish = func() (registry.Meta, error) { return p.reg.SaveRegressor(reg, meta) }
	default:
		return false, fmt.Errorf("online: cannot retrain kind %q", old.Meta.Kind)
	}
	fsp.End()

	if newMAPE >= oldMAPE {
		st.mu.Lock()
		st.discarded++
		st.mu.Unlock()
		return false, nil
	}
	meta.TestMAPE = newMAPE
	meta.Notes = fmt.Sprintf("online retrain of v%d: %d window + %d base samples, holdout MAPE %.2f%% (was %.2f%%)",
		old.Meta.Version, len(samples)-holdN, meta.TrainSize-(len(samples)-holdN), newMAPE, oldMAPE)
	psp := telemetry.StartSpan(ctx, "publish")
	newMeta, err := publish()
	psp.End()
	if err != nil {
		return false, err
	}

	st.mu.Lock()
	st.published++
	st.preSwapMAPE = st.window.stats().MAPE
	st.lastPublished = &newMeta
	st.lastError = ""
	// Measure the swapped-in model from scratch: stale window entries
	// are the old model's errors, not the new one's.
	st.window.reset()
	st.det.reset()
	st.mu.Unlock()

	if p.OnPublish != nil {
		p.OnPublish(newMeta)
	}
	return true, nil
}

// baseFor rebuilds the model's original training set (or the
// configured substitute), resampled to baseSize rows on the default
// path. A nil dataset from the hook — or metadata with no workload
// provenance — yields an empty set with synthesised feature names: the
// retrain then uses the window alone.
func (p *Plane) baseFor(meta registry.Meta, baseSize int, rng *rand.Rand, arity int) (*dataset.Dataset, error) {
	var base *dataset.Dataset
	if p.cfg.BaseData != nil {
		b, err := p.cfg.BaseData(meta)
		if err != nil {
			return nil, fmt.Errorf("online: rebuilding base training set: %w", err)
		}
		base = b
	} else if meta.Workload != "" && meta.Machine != "" {
		m, ok := machine.Presets()[meta.Machine]
		if !ok {
			return nil, fmt.Errorf("online: %w: %q", lamerr.ErrUnknownMachine, meta.Machine)
		}
		w, err := workload.Lookup(meta.Workload)
		if err != nil {
			return nil, err
		}
		ds, err := w.Dataset(m, uint64(p.cfg.Seed))
		if err != nil {
			return nil, err
		}
		if baseSize > 0 && baseSize < ds.Len() {
			sub, _, err := ds.SampleN(baseSize, rng)
			if err != nil {
				return nil, err
			}
			ds = sub
		}
		base = ds
	}
	if base == nil {
		names := make([]string, arity)
		for i := range names {
			names[i] = fmt.Sprintf("f%d", i)
		}
		return dataset.New(names...), nil
	}
	return base.Clone(), nil
}

func modelMAPE(ctx context.Context, m *registry.Model, X [][]float64, y []float64) (float64, error) {
	buf := ml.GetScratch(len(X))
	defer ml.PutScratch(buf)
	if err := m.PredictBatchInto(ctx, X, *buf); err != nil {
		return 0, err
	}
	return ml.MAPE(y, *buf), nil
}

func hybridMAPE(ctx context.Context, m *hybrid.Model, X [][]float64, y []float64) (float64, error) {
	buf := ml.GetScratch(len(X))
	defer ml.PutScratch(buf)
	if err := m.PredictBatchIntoCtx(ctx, X, *buf, m.Config().Workers); err != nil {
		return 0, err
	}
	return ml.MAPE(y, *buf), nil
}

func regressorMAPE(ctx context.Context, r ml.Regressor, X [][]float64, y []float64) (float64, error) {
	buf := ml.GetScratch(len(X))
	defer ml.PutScratch(buf)
	if err := ml.PredictBatchIntoCtx(ctx, r, X, *buf, 1); err != nil {
		return 0, err
	}
	return ml.MAPE(y, *buf), nil
}
