package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"lam/internal/lamerr"
	"lam/internal/ml"
	"lam/internal/online"
	"lam/internal/registry"
	"lam/internal/rollout"
	"lam/internal/telemetry"
	"lam/internal/wire"
)

// Server serves predictions from one registry.
type Server struct {
	reg *registry.Registry
	// Workers bounds per-request batch parallelism for every loaded
	// model, regressor or hybrid; <= 0 means GOMAXPROCS.
	Workers int
	// Metrics is the server's counter set (GET /metrics), handles into
	// Telemetry resolved by New; exported so tests and embedders can
	// read it.
	Metrics Metrics
	// Telemetry is the metric registry behind Metrics and the
	// Prometheus text exposition at GET /metrics. Created by New.
	Telemetry *telemetry.Registry
	// Tracer records per-request traces into a bounded ring (GET
	// /trace/recent). Created by New; set Slow and Logger before
	// Handler to enable slow-trace logging (-trace-slow).
	Tracer *telemetry.Recorder
	// Log, when set, receives the server's structured log lines (hot
	// swaps); nil keeps the server silent.
	Log *slog.Logger
	// Coalesce enables micro-batch coalescing of single-row /predict
	// requests when MaxBatch > 1 (see CoalesceConfig). Set before
	// Handler; the zero value leaves coalescing off.
	Coalesce CoalesceConfig
	// Admit bounds /predict concurrency when MaxInflight > 0 (see
	// AdmitConfig). Set before Handler; the zero value admits
	// everything.
	Admit AdmitConfig
	// WarmNames lists models that must be resident in the hot-swap
	// pointer before GET /readyz reports ready — the fleet-admission
	// gate a gateway health-checks before routing traffic here. Set
	// before Handler; Warm loads them.
	WarmNames []string
	// InjectLatency, when > 0, sleeps that long inside every /predict
	// while holding its admission slot. It is a fault-injection aid for
	// fleet and capacity testing (emulating slower replicas or
	// constrained hardware so routing, shedding and spill-over can be
	// exercised deterministically); it must stay 0 in production.
	InjectLatency time.Duration

	// online is the adaptation plane, nil until AttachOnline.
	online *online.Plane
	// rollout is the progressive-delivery controller, nil until
	// AttachRollout; shadowDiv is its shadow-divergence histogram.
	rollout   *rollout.Controller
	shadowDiv *telemetry.Histogram
	// co and admit are built by Handler from Coalesce and Admit.
	co    *coalescer
	admit *admission

	// models decides which loaded model answers each request
	// (resolve.go).
	models resolver

	// teleMu guards modelTele, the per-(model, version) labeled series
	// cache. The predict fast path is one RLock + struct-keyed map
	// lookup — no allocation; registration happens once per loaded
	// version.
	teleMu    sync.RWMutex
	modelTele map[modelKey]*modelTelemetry
}

// modelKey identifies one (model, version) for the labeled-series
// cache without retaining the loaded model itself.
type modelKey struct {
	name    string
	version int
}

// traceRingSize bounds /trace/recent: enough to find a slow outlier
// reported by lam-loadgen moments earlier, small enough to never
// matter for memory.
const traceRingSize = 256

// New returns a server backed by reg.
func New(reg *registry.Registry) *Server {
	s := &Server{
		reg:       reg,
		modelTele: make(map[modelKey]*modelTelemetry),
	}
	s.Telemetry = telemetry.NewRegistry()
	s.Metrics = newMetrics(s.Telemetry)
	s.Tracer = telemetry.NewRecorder(traceRingSize)
	s.models = resolver{
		reg:     reg,
		load:    s.loadModel,
		swapped: s.logSwap,
		metrics: &s.Metrics,
		pins:    make(map[modelKey]*registry.Model),
	}
	return s
}

// loadModel reads one version from the registry with the server's
// Workers setting, recording the read on ctx's trace.
func (s *Server) loadModel(ctx context.Context, name string, version int) (*registry.Model, error) {
	m, err := s.reg.LoadCtx(ctx, name, version)
	if err != nil {
		return nil, err
	}
	m.Workers = s.Workers
	return m, nil
}

func (s *Server) logSwap(m *registry.Model, replaced int) {
	if s.Log != nil {
		s.Log.Info("hot swap", "model", m.Meta.Name, "version", m.Meta.Version, "replaced", replaced)
	}
}

// modelTeleFor resolves the per-(model, version) labeled counters,
// registering them on first use.
func (s *Server) modelTeleFor(m *registry.Model) *modelTelemetry {
	key := modelKey{name: m.Meta.Name, version: m.Meta.Version}
	s.teleMu.RLock()
	mt := s.modelTele[key]
	s.teleMu.RUnlock()
	if mt != nil {
		return mt
	}
	ver := strconv.Itoa(key.version)
	mt = &modelTelemetry{
		ok: s.Telemetry.Counter("lam_model_predict_requests_total",
			"Completed /predict requests per model version and outcome",
			telemetry.L("model", key.name), telemetry.L("version", ver), telemetry.L("outcome", "ok")),
		err: s.Telemetry.Counter("lam_model_predict_requests_total",
			"Completed /predict requests per model version and outcome",
			telemetry.L("model", key.name), telemetry.L("version", ver), telemetry.L("outcome", "error")),
		rows: s.Telemetry.Counter("lam_model_predict_rows_total",
			"Rows scored per model version",
			telemetry.L("model", key.name), telemetry.L("version", ver)),
	}
	s.teleMu.Lock()
	if existing, ok := s.modelTele[key]; ok {
		mt = existing
	} else {
		s.modelTele[key] = mt
	}
	s.teleMu.Unlock()
	return mt
}

// AttachOnline wires an online adaptation plane into the server: the
// /observe and /models/{name}/drift endpoints start serving, and every
// version the plane's retrainer publishes is immediately swapped into
// the latest pointer. Call before Handler.
func (s *Server) AttachOnline(p *online.Plane) {
	s.online = p
	if p.Tracer == nil {
		p.Tracer = s.Tracer
	}
	if p.Log == nil {
		p.Log = s.Log
	}
	p.OnPublish = func(meta registry.Meta) {
		// Warm and swap eagerly so the first post-publish request does
		// not pay the deserialization; the per-request resolution would
		// pick the new version up regardless.
		_, _ = s.Reload(meta.Name)
	}
	// Online activity is exposed as scrape-time collectors: the plane's
	// own state stays the source of truth instead of being mirrored
	// into slots.
	counter := func(get func(online.Counters) uint64) func(func([]telemetry.Label, float64)) {
		return func(emit func([]telemetry.Label, float64)) {
			emit(nil, float64(get(p.Counters())))
		}
	}
	s.Telemetry.CollectFunc("lam_online_observations_total", "Ground-truth observations ingested by the online plane",
		telemetry.TypeCounter, counter(func(c online.Counters) uint64 { return c.Observations }))
	s.Telemetry.CollectFunc("lam_online_drift_trips_total", "Drift-detector trips",
		telemetry.TypeCounter, counter(func(c online.Counters) uint64 { return c.Trips }))
	s.Telemetry.CollectFunc("lam_online_retrains_started_total", "Background retrains started",
		telemetry.TypeCounter, counter(func(c online.Counters) uint64 { return c.RetrainsStarted }))
	s.Telemetry.CollectFunc("lam_online_retrains_published_total", "Retrains that published an improved version",
		telemetry.TypeCounter, counter(func(c online.Counters) uint64 { return c.RetrainsPublished }))
	s.Telemetry.CollectFunc("lam_online_retrains_discarded_total", "Retrains discarded for not improving on holdout",
		telemetry.TypeCounter, counter(func(c online.Counters) uint64 { return c.RetrainsDiscarded }))
	s.Telemetry.CollectFunc("lam_online_retrain_errors_total", "Retrain attempts that failed",
		telemetry.TypeCounter, counter(func(c online.Counters) uint64 { return c.RetrainErrors }))
	// Per-version served accuracy: the plane's ledger, whole rings. The
	// rollout gate reads the same rings from its cursors on.
	s.Telemetry.CollectFunc("lam_served_ape",
		"Served absolute-percentage-error quantiles per model version; a rollout candidate's series includes its shadow-scored rows",
		telemetry.TypeGauge, func(emit func([]telemetry.Label, float64)) {
			for _, a := range p.Ledger().Snapshot() {
				model := telemetry.L("model", a.Model)
				version := telemetry.L("version", strconv.Itoa(a.Version))
				emit([]telemetry.Label{model, version, telemetry.L("quantile", "0.5")}, a.P50)
				emit([]telemetry.Label{model, version, telemetry.L("quantile", "0.9")}, a.P90)
				emit([]telemetry.Label{model, version, telemetry.L("quantile", "0.99")}, a.P99)
			}
		})
}

// Handler returns the service's HTTP routes, materialising the
// coalescing and admission planes from the Coalesce and Admit configs.
func (s *Server) Handler() http.Handler {
	if s.Coalesce.enabled() {
		s.co = newCoalescer(s.Coalesce, &s.Metrics)
	}
	if s.Admit.enabled() {
		s.admit = newAdmission(s.Admit, &s.Metrics)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /models", s.handleModels)
	mux.Handle("GET /metrics", s.Telemetry.Handler())
	mux.Handle("GET /trace/recent", s.Tracer.Handler())
	mux.HandleFunc("POST /predict", s.handlePredict)
	if s.online != nil {
		mux.HandleFunc("POST /observe", s.handleObserve)
		mux.HandleFunc("GET /models/{name}/drift", s.handleDrift)
	}
	if s.rollout != nil {
		mux.HandleFunc("GET /models/{name}/rollout", s.handleRolloutGet)
		mux.HandleFunc("POST /models/{name}/rollout", s.handleRolloutPost)
	}
	return mux
}

// load returns the model for (name, version). version <= 0 means the
// latest published version, served through the lock-free hot-swap
// slot; pinned versions go through the bounded cache. ctx carries the
// request trace so cold loads record artifact_load/hot_swap spans.
func (s *Server) load(ctx context.Context, name string, version int) (*registry.Model, error) {
	if version <= 0 {
		return s.models.latest(ctx, name)
	}
	return s.models.pinned(ctx, name, version)
}

// Reload resolves name's latest version into the hot-swap slot now: the
// publish notification path of the online plane, so the first request
// after a retrain does not pay the decode. A version published by
// another process needs no call: the next request resolves it.
func (s *Server) Reload(name string) (*registry.Model, error) {
	return s.models.latest(context.Background(), name)
}

type errorResponse struct {
	Error string `json:"error"`
}

// maxRequestBytes bounds a /predict request body (64 MiB ≈ a 400k-row
// batch of 20 features): without a cap, one oversized POST would be
// fully decoded into memory before any validation runs.
const maxRequestBytes = 64 << 20

// writeError maps the repository's typed sentinels to HTTP status
// codes and emits a JSON error body.
func writeError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		status = http.StatusRequestEntityTooLarge
	case errors.Is(err, lamerr.ErrBadRequest), errors.Is(err, lamerr.ErrDimension):
		status = http.StatusBadRequest
	case errors.Is(err, lamerr.ErrUnknownModel):
		status = http.StatusNotFound
	case errors.Is(err, lamerr.ErrCancelled):
		// The client is gone or gave up; 499 in nginx convention. The
		// response is moot but keeps logs truthful.
		status = 499
	}
	writeJSON(w, status, errorResponse{Error: err.Error()})
}

// predictError classifies a prediction-time failure: cancellation and
// server-state faults (unfitted model) keep their classes, everything
// else on a well-formed request is input the model rejected (e.g. the
// analytical model refusing non-positive grid dimensions) and is the
// client's fault.
func predictError(err error) error {
	if errors.Is(err, lamerr.ErrCancelled) || errors.Is(err, lamerr.ErrNotFitted) {
		return err
	}
	if errors.Is(err, lamerr.ErrBadRequest) || errors.Is(err, lamerr.ErrDimension) {
		return err
	}
	return fmt.Errorf("serve: %w: %w", lamerr.ErrBadRequest, err)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

type healthzResponse struct {
	Status string `json:"status"`
	Models int    `json:"models"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	// Liveness must stay cheap enough for tight probe loops: one
	// directory scan, no meta.json reads (unlike /models).
	names, err := s.reg.Names()
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, healthzResponse{Status: "ok", Models: len(names)})
}

// Warm force-loads every WarmNames model into its hot-swap slot,
// returning the first load error. Call after construction (typically
// concurrently with serving — /readyz reports warming until every
// named model is resident, which is the point: a fleet gateway must
// not route here while cold loads are still paying artifact decodes).
func (s *Server) Warm() error {
	for _, name := range s.WarmNames {
		if _, err := s.Reload(name); err != nil {
			return fmt.Errorf("warming %s: %w", name, err)
		}
	}
	return nil
}

type readyzResponse struct {
	Status  string   `json:"status"`
	Models  int      `json:"models"`
	Warming []string `json:"warming,omitempty"`
}

// handleReadyz is readiness, distinct from /healthz liveness: ready
// means the registry is reachable AND every WarmNames model is
// resident in memory. A replica that is up but still paying cold-start
// decodes answers 503 here, so a fleet gateway keeps traffic off it
// until it can serve at full speed.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	names, err := s.reg.Names()
	if err != nil {
		writeJSON(w, http.StatusServiceUnavailable, readyzResponse{Status: "registry unreachable"})
		return
	}
	var warming []string
	for _, name := range s.WarmNames {
		if s.models.serving(name) == nil {
			warming = append(warming, name)
		}
	}
	if len(warming) > 0 {
		writeJSON(w, http.StatusServiceUnavailable, readyzResponse{
			Status: "warming", Models: len(names), Warming: warming,
		})
		return
	}
	writeJSON(w, http.StatusOK, readyzResponse{Status: "ready", Models: len(names)})
}

type modelsResponse struct {
	Models []registry.Meta `json:"models"`
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	metas, err := s.reg.List()
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, modelsResponse{Models: metas})
}

// handlePredict answers /predict. Nothing in it allocates per row: the
// body is scanned into pooled rows (internal/wire), scored into a pooled
// output buffer, and the answer encoded back into the request's pooled
// memory.
func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.Metrics.PredictRequests.Add(1)
	defer func() { s.Metrics.PredictLatency.Observe(time.Since(start)) }()
	// Adopt the gateway's trace ID (or mint one at this edge) and echo
	// it back so a client can chase the request in /trace/recent.
	tr := s.Tracer.StartFromHeader(r.Header, "predict")
	ctx := r.Context()
	if tr != nil {
		w.Header().Set(telemetry.TraceHeader, tr.ID().String())
		ctx = telemetry.WithTrace(ctx, tr)
		defer s.Tracer.Finish(tr)
	}
	fail := func(err error) {
		s.Metrics.PredictErrors.Add(1)
		writeError(w, err)
	}
	if s.admit != nil {
		asp := tr.StartSpan("admission")
		release, err := s.admit.admit(ctx)
		asp.End()
		if err != nil {
			if errors.Is(err, errOverloaded) {
				// Shed, not failed: the client is told to back off while
				// the admission queue turns over.
				w.Header().Set("Retry-After", "1")
				writeJSON(w, http.StatusTooManyRequests, errorResponse{Error: err.Error()})
				return
			}
			fail(err)
			return
		}
		defer release()
	}
	if s.InjectLatency > 0 {
		select {
		case <-time.After(s.InjectLatency):
		case <-ctx.Done():
			fail(fmt.Errorf("serve: %w: %w", lamerr.ErrCancelled, ctx.Err()))
			return
		}
	}
	req, err := wire.DecodePredict(http.MaxBytesReader(w, r.Body, maxRequestBytes), r.ContentLength)
	if err != nil {
		fail(fmt.Errorf("serve: %w: %w", lamerr.ErrBadRequest, err))
		return
	}
	// The rows are pooled: they go back once the answer is written and
	// shadow-scored — unless a coalesced wait was cancelled, when the
	// drain may still read the row and req is dropped instead.
	defer func() {
		if req != nil {
			req.Release()
		}
	}()
	if req.Model == "" {
		fail(fmt.Errorf("serve: %w: missing \"model\"", lamerr.ErrBadRequest))
		return
	}
	single := req.X != nil
	if single == (len(req.Batch) > 0) {
		fail(fmt.Errorf("serve: %w: exactly one of \"x\" and \"batch\" must be set", lamerr.ErrBadRequest))
		return
	}
	m, err := s.load(ctx, req.Model, req.Version)
	if err != nil {
		fail(err)
		return
	}
	// rv non-nil past this point means "shadow-score after serving":
	// canary-assigned requests are re-targeted at the candidate (and
	// have nothing to shadow), the canary remainder is served by the
	// incumbent without shadowing.
	rv := s.rolloutView(req.Model, req.Version)
	if rv != nil {
		routed := false
		if single {
			routed = rv.RouteRow(req.X)
		} else {
			routed = rv.RouteBatch(req.Batch)
		}
		switch {
		case routed:
			m = rv.Candidate
			rv = nil
		case rv.Phase != rollout.PhaseShadow:
			rv = nil
		}
	}
	tr.SetModel(m.Meta.Name, m.Meta.Version)
	mt := s.modelTeleFor(m)
	// respond encodes the answer before anything is counted or written
	// — a non-finite prediction is the request's 400, not a 200 cut off
	// mid-body — then writes it with its exact length in one Write.
	respond := func(ys []float64) bool {
		body, err := req.Response(m.Meta.Name, m.Meta.Version, ys)
		if err != nil {
			mt.err.Inc()
			fail(fmt.Errorf("serve: %w: %w", lamerr.ErrBadRequest, err))
			return false
		}
		s.Metrics.PredictRows.Add(uint64(len(ys)))
		mt.ok.Inc()
		mt.rows.Add(uint64(len(ys)))
		h := w.Header()
		h.Set("Content-Type", "application/json")
		h.Set("Content-Length", strconv.Itoa(len(body)))
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(body)
		return true
	}
	if single {
		var y [1]float64
		psp := tr.StartSpan("predict")
		if s.co != nil {
			s.Metrics.CoalescedRequests.Add(1)
			y[0], err = s.co.predict(ctx, m, req.X)
			if errors.Is(err, lamerr.ErrCancelled) {
				req = nil
			}
		} else {
			y[0], err = m.Predict(ctx, req.X)
		}
		psp.End()
		if err != nil {
			mt.err.Inc()
			fail(predictError(err))
			return
		}
		if respond(y[:]) && rv != nil {
			s.shadowScoreRow(ctx, rv, req.X, y[0])
		}
		return
	}
	s.Metrics.PredictBatchRequests.Add(1)
	buf := ml.GetScratch(len(req.Batch))
	defer ml.PutScratch(buf)
	psp := tr.StartSpan("predict")
	if tr != nil {
		// One allocation whatever the row count (Itoa allocates from 100).
		var detail [24]byte
		psp.Detail(string(strconv.AppendInt(append(detail[:0], "rows="...), int64(len(req.Batch)), 10)))
	}
	err = m.PredictBatchInto(ctx, req.Batch, *buf)
	psp.End()
	if err != nil {
		mt.err.Inc()
		fail(predictError(err))
		return
	}
	if respond(*buf) && rv != nil {
		s.shadowScoreBatch(ctx, rv, req.Batch, *buf)
	}
}

// observeResponse reports what was ingested and the model's resulting
// adaptation state — enough for a replay client to watch the drift
// detector trip and the retrained version publish without polling a
// second endpoint.
type observeResponse struct {
	Model    string        `json:"model"`
	Version  int           `json:"version"`
	Ingested int           `json:"ingested"`
	Drift    online.Status `json:"drift"`
	// Rollout is present while a rollout is active for the model: the
	// state after this batch's APEs fed the current gate, so a replay
	// client can watch the candidate walk the stages inline.
	Rollout *rollout.Status `json:"rollout,omitempty"`
}

// handleObserve scores each observed feature vector with the current
// latest model (the "served prediction" half of the window's rolling
// accuracy) and feeds the (x, predicted, observed) triples to the
// online plane. Drift detection and any resulting background retrain
// happen inside the plane; the response carries the updated status.
func (s *Server) handleObserve(w http.ResponseWriter, r *http.Request) {
	s.Metrics.ObserveRequests.Add(1)
	tr := s.Tracer.StartFromHeader(r.Header, "observe")
	ctx := r.Context()
	if tr != nil {
		w.Header().Set(telemetry.TraceHeader, tr.ID().String())
		ctx = telemetry.WithTrace(ctx, tr)
		defer s.Tracer.Finish(tr)
	}
	fail := func(err error) {
		s.Metrics.ObserveErrors.Add(1)
		writeError(w, err)
	}
	req, err := wire.DecodeObserve(http.MaxBytesReader(w, r.Body, maxRequestBytes), r.ContentLength)
	if err != nil {
		fail(fmt.Errorf("serve: %w: %w", lamerr.ErrBadRequest, err))
		return
	}
	// The rows view pooled memory; the plane's window copies what it
	// keeps, so they go back once the response is written.
	defer req.Release()
	if req.Model == "" {
		fail(fmt.Errorf("serve: %w: missing \"model\"", lamerr.ErrBadRequest))
		return
	}
	single := req.X != nil || req.Y != nil
	batch := len(req.Batch) > 0 || len(req.YBatch) > 0
	if single == batch {
		fail(fmt.Errorf("serve: %w: exactly one of (\"x\",\"y\") and (\"batch\",\"y_batch\") must be set", lamerr.ErrBadRequest))
		return
	}
	if single && (req.X == nil || req.Y == nil) {
		fail(fmt.Errorf("serve: %w: a single observation needs both \"x\" and \"y\"", lamerr.ErrBadRequest))
		return
	}
	if !single && len(req.Batch) != len(req.YBatch) {
		fail(fmt.Errorf("serve: %w: %d feature rows but %d observed runtimes",
			lamerr.ErrBadRequest, len(req.Batch), len(req.YBatch)))
		return
	}
	X, obs := req.Rows()
	for i, y := range obs {
		if math.IsNaN(y) || math.IsInf(y, 0) {
			fail(fmt.Errorf("serve: %w: observation %d is not finite", lamerr.ErrBadRequest, i))
			return
		}
	}
	m, err := s.load(ctx, req.Model, 0)
	if err != nil {
		fail(err)
		return
	}
	tr.SetModel(m.Meta.Name, m.Meta.Version)
	var status online.Status
	var rst *rollout.Status
	if rv := s.rolloutView(req.Model, 0); rv != nil {
		status, rst, err = s.rolloutObserve(ctx, m, rv, X, obs)
		if err != nil {
			fail(err)
			return
		}
	} else {
		buf := ml.GetScratch(len(X))
		defer ml.PutScratch(buf)
		psp := tr.StartSpan("predict")
		err = m.PredictBatchInto(ctx, X, *buf)
		psp.End()
		if err != nil {
			fail(predictError(err))
			return
		}
		isp := tr.StartSpan("observe_ingest")
		status, err = s.online.Observe(m, X, *buf, obs)
		isp.End()
		if err != nil {
			fail(err)
			return
		}
	}
	s.Metrics.ObserveRows.Add(uint64(len(X)))
	writeJSON(w, http.StatusOK, observeResponse{
		Model:    m.Meta.Name,
		Version:  m.Meta.Version,
		Ingested: len(X),
		Drift:    status,
		Rollout:  rst,
	})
}

// handleDrift reports the adaptation state of a model's latest served
// version.
func (s *Server) handleDrift(w http.ResponseWriter, r *http.Request) {
	m, err := s.load(r.Context(), r.PathValue("name"), 0)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, s.online.Status(m))
}
