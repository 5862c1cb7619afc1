package gateway

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptrace"
	"net/url"
	"path"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"lam/internal/registry"
	"lam/internal/telemetry"
	"lam/internal/wire"
)

// maxRequestBytes bounds a proxied request body — the same 64 MiB cap
// internal/serve applies, enforced here so an oversized POST is
// refused before it is buffered for retry.
const maxRequestBytes = 64 << 20

// maxBackends bounds the fleet size (the ring's candidate walk uses a
// 64-bit visited mask).
const maxBackends = 64

// cooldownCap bounds how long a backend's Retry-After can keep it
// deprioritized: a replica advertising a huge backoff must not be able
// to write itself out of the fleet.
const cooldownCap = 5 * time.Second

// traceRingSize is the number of finished traces GET /trace/recent can
// return (same bound as internal/serve).
const traceRingSize = 256

// Config tunes the gateway. The zero value gets defaults in New.
type Config struct {
	// Health is the active checking + ejection policy.
	Health HealthConfig
	// BoundFactor is the bounded-load spill threshold: a request's
	// primary replica is skipped when its in-flight count exceeds
	// BoundFactor × the fleet-wide mean (the consistent-hashing-with-
	// bounded-loads rule), trading a little batch density for an upper
	// bound on hot-model imbalance. <= 1 disables spilling; default 1.25.
	BoundFactor float64
	// MaxAttempts is the total backend attempts one client request may
	// consume (first try + retries). Default 2.
	MaxAttempts int
	// Logger receives the gateway's structured log output (backend
	// ejections/readmissions, slow traces). Nil discards.
	Logger *slog.Logger
	// TraceSlow, when positive, logs the span tree of any proxied
	// request slower than it (the -trace-slow flag).
	TraceSlow time.Duration
}

func (c Config) withDefaults() Config {
	c.Health = c.Health.withDefaults()
	if c.BoundFactor == 0 {
		c.BoundFactor = 1.25
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 2
	}
	return c
}

// backend is one lam-serve replica: its base URL, the prebuilt targets
// of the two hot endpoints, a dedicated Transport (per-backend pooling
// keeps one slow replica from starving the others' idle connections),
// its health state machine and its counter set.
type backend struct {
	url              string
	predict, observe *url.URL
	transport        *http.Transport
	health           *health
	metrics          backendMetrics
	// cooldownUntil is a unix-nano deadline set from a 429's
	// Retry-After: until it passes, routing deprioritizes this backend
	// (used only when every other live candidate is also cooling down).
	cooldownUntil atomic.Int64
}

// Gateway fronts a fleet of lam-serve replicas: per-model consistent
// routing with bounded-load spill, active health ejection, and
// retry/spill-over on 429s and connection failures.
type Gateway struct {
	backends []*backend
	ring     *ring
	cfg      Config
	// Metrics is the gateway's counter set (GET /metrics). Exported so
	// tests and embedders can read it; the handles resolve into
	// Telemetry.
	Metrics Metrics
	// Telemetry is the metric registry backing GET /metrics.
	Telemetry *telemetry.Registry
	// Tracer records finished request traces (GET /trace/recent) and
	// logs slow ones.
	Tracer *telemetry.Recorder
	// Log is the gateway's structured logger (Config.Logger, or a
	// discard logger when unset).
	Log *slog.Logger

	cancel context.CancelFunc
}

// New builds a gateway over the given replica base URLs and starts the
// active health probers. Call Close to stop them.
func New(urls []string, cfg Config) (*Gateway, error) {
	if len(urls) == 0 {
		return nil, fmt.Errorf("gateway: at least one backend URL is required")
	}
	if len(urls) > maxBackends {
		return nil, fmt.Errorf("gateway: %d backends exceeds the maximum of %d", len(urls), maxBackends)
	}
	cfg = cfg.withDefaults()
	lg := cfg.Logger
	if lg == nil {
		lg = slog.New(slog.DiscardHandler)
	}
	g := &Gateway{
		cfg:       cfg,
		Telemetry: telemetry.NewRegistry(),
		Tracer:    telemetry.NewRecorder(traceRingSize),
		Log:       lg,
	}
	g.Metrics = newMetrics(g.Telemetry)
	g.Tracer.Slow = cfg.TraceSlow
	g.Tracer.Logger = lg
	seen := make(map[string]bool, len(urls))
	normalized := make([]string, 0, len(urls))
	for _, u := range urls {
		u = strings.TrimRight(strings.TrimSpace(u), "/")
		if u == "" {
			return nil, fmt.Errorf("gateway: empty backend URL")
		}
		if !strings.HasPrefix(u, "http://") && !strings.HasPrefix(u, "https://") {
			return nil, fmt.Errorf("gateway: backend %q must be an http(s) URL", u)
		}
		if seen[u] {
			return nil, fmt.Errorf("gateway: duplicate backend %q", u)
		}
		seen[u] = true
		normalized = append(normalized, u)
		b := &backend{
			url: u,
			// No overall timeout: a slow prediction must be allowed to
			// finish, and the client request context already cancels
			// abandoned work. Probes get their own timeout.
			transport: &http.Transport{
				MaxIdleConns:        256,
				MaxIdleConnsPerHost: 256,
				IdleConnTimeout:     90 * time.Second,
			},
			health:  newHealth(cfg.Health, lg, u),
			metrics: newBackendMetrics(g.Telemetry, u),
		}
		var err error
		if b.predict, err = url.Parse(u + "/predict"); err != nil {
			return nil, fmt.Errorf("gateway: backend %q: %w", u, err)
		}
		if b.observe, err = url.Parse(u + "/observe"); err != nil {
			return nil, fmt.Errorf("gateway: backend %q: %w", u, err)
		}
		g.backends = append(g.backends, b)
	}
	// Liveness and ejection counts live in the health state machine;
	// collectors read them at scrape time instead of mirroring.
	g.Telemetry.CollectFunc("lam_gateway_backend_up",
		"Backend liveness (1 live, 0 ejected).", telemetry.TypeGauge,
		func(emit func([]telemetry.Label, float64)) {
			for _, b := range g.backends {
				v := 0.0
				if b.health.live() {
					v = 1
				}
				emit([]telemetry.Label{telemetry.L("backend", b.url)}, v)
			}
		})
	g.Telemetry.CollectFunc("lam_gateway_backend_ejections_total",
		"Healthy-to-ejected transitions per backend.", telemetry.TypeCounter,
		func(emit func([]telemetry.Label, float64)) {
			for _, b := range g.backends {
				emit([]telemetry.Label{telemetry.L("backend", b.url)}, float64(b.health.ejections.Load()))
			}
		})
	g.ring = newRing(normalized)
	ctx, cancel := context.WithCancel(context.Background())
	g.cancel = cancel
	for _, b := range g.backends {
		go probeLoop(ctx, b.transport, b.url+"/readyz", b.health)
	}
	return g, nil
}

// Close stops the health probers and releases pooled connections.
func (g *Gateway) Close() {
	g.cancel()
	for _, b := range g.backends {
		b.transport.CloseIdleConnections()
	}
}

// Handler returns the gateway's HTTP routes.
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", g.handleHealthz)
	mux.HandleFunc("GET /models", g.handleModels)
	mux.Handle("GET /metrics", g.Telemetry.Handler())
	mux.Handle("GET /trace/recent", g.Tracer.Handler())
	mux.HandleFunc("POST /predict", func(w http.ResponseWriter, r *http.Request) {
		g.Metrics.PredictRequests.Add(1)
		g.proxy(w, r, "", true)
	})
	mux.HandleFunc("POST /observe", func(w http.ResponseWriter, r *http.Request) {
		g.Metrics.ObserveRequests.Add(1)
		g.proxy(w, r, "", false)
	})
	// A rollout request routes by the model name in its path — the same
	// ring key /predict uses, so the state a client reads comes from the
	// replica most of that model's traffic lands on. Inspections are
	// idempotent; actions are not.
	rollout := func(w http.ResponseWriter, r *http.Request) {
		g.proxy(w, r, r.PathValue("name"), r.Method != http.MethodPost)
	}
	mux.HandleFunc("GET /models/{name}/rollout", rollout)
	mux.HandleFunc("POST /models/{name}/rollout", rollout)
	return mux
}

type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// tryOrder returns the ordered backends this request may attempt:
// live candidates in ring order for the model, rotated so the first
// entry respects the bounded-load rule and active cooldowns. The walk is the routing
// decision proper and is what the route-latency histogram measures.
func (g *Gateway) tryOrder(model string, buf []int) []int {
	start := time.Now()
	defer func() { g.Metrics.RouteLatency.Observe(time.Since(start)) }()

	cands := g.ring.candidates(model, buf)
	live := cands[:0] // filter in place: cands is not reused
	for _, i := range cands {
		if g.backends[i].health.live() {
			live = append(live, i)
		}
	}
	if len(live) <= 1 {
		return live
	}
	// Bounded load: skip the primary while its in-flight count exceeds
	// BoundFactor × the live-fleet mean. The chosen start is a rotation,
	// not a reorder — spill-over retries still walk the ring sequence.
	if g.cfg.BoundFactor > 1 {
		var total int64
		for _, b := range g.backends {
			total += b.metrics.Inflight.Load()
		}
		bound := int64(g.cfg.BoundFactor * float64(total+1) / float64(len(live)))
		if bound < 1 {
			bound = 1
		}
		for off := 0; off < len(live); off++ {
			if g.backends[live[off]].metrics.Inflight.Load() < bound {
				if off > 0 {
					g.backends[live[0]].metrics.SpillsAway.Add(1)
					rotate(live, off)
				}
				break
			}
		}
	}
	// Cooldown (Retry-After) deprioritization: rotate past backends
	// that recently shed, unless every candidate is cooling down.
	now := time.Now().UnixNano()
	for off := 0; off < len(live); off++ {
		if g.backends[live[off]].cooldownUntil.Load() <= now {
			rotate(live, off)
			break
		}
	}
	return live
}

// rotate moves live[off:] to the front, preserving relative order, in
// place: reversing both parts and then the whole turns [a b] into
// [b a].
func rotate(live []int, off int) {
	slices.Reverse(live[:off])
	slices.Reverse(live[off:])
	slices.Reverse(live)
}

// proxy forwards one model-addressed request to the fleet, to the same
// path on the replica, routed by key: the model name of a rollout path,
// or, when key is empty, the "model" field peeked from the body. The
// body is buffered in pooled memory (a retry needs to resend it); the
// response streams straight through, so a forwarded answer is
// byte-identical to the backend's. idempotent requests (/predict,
// rollout GETs) may be retried after any transport failure; the others
// (/observe, rollout actions) only when the failure provably happened
// before the request reached a backend (a dial error) — never after
// bytes were written to a live connection, so an observation is never
// ingested twice and an action never applied twice. A 429 spills over
// for every request: the backend shed it before processing.
func (g *Gateway) proxy(w http.ResponseWriter, r *http.Request, key string, idempotent bool) {
	// The gateway is the trace edge: it adopts the client's X-Lam-Trace
	// ID or mints one, echoes it on the response, and forwards it on
	// every backend attempt so the replica's spans join the same trace.
	// The trace is named for the path's last segment: predict, observe
	// or rollout.
	tr := g.Tracer.StartFromHeader(r.Header, path.Base(r.URL.Path))
	if tr != nil {
		w.Header().Set(telemetry.TraceHeader, tr.IDString())
		defer g.Tracer.Finish(tr)
	}
	ctx := telemetry.WithTrace(r.Context(), tr)

	out := newOutbound(r.Header.Get("Content-Type"), tr.IDString())
	defer out.release()
	if err := out.read(http.MaxBytesReader(w, r.Body, maxRequestBytes), r.ContentLength); err != nil {
		var tooLarge *http.MaxBytesError
		status := http.StatusBadRequest
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		g.Metrics.Errors.Add(1)
		writeJSON(w, status, errorResponse{Error: fmt.Sprintf("gateway: reading request body: %v", err)})
		return
	}
	// A body the gateway cannot peek a model out of still gets
	// forwarded (with an empty routing key): the backend owns the
	// authoritative 400 so error responses are byte-identical too.
	if key == "" {
		key = wire.PeekModel(out.body.Bytes())
	}
	// Every attempt's Transport write is counted on out (see outbound).
	actx := httptrace.WithClientTrace(ctx, &out.trace)
	// Version is unknown at the gateway: routing keys on the name; the
	// replica resolves (and records) the served version.
	tr.SetModel(key, 0)

	var orderBuf [maxBackends]int
	rsp := tr.StartSpan("route")
	order := g.tryOrder(key, orderBuf[:])
	rsp.End()
	if len(order) == 0 {
		g.Metrics.NoBackend.Add(1)
		g.Metrics.Errors.Add(1)
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "gateway: no live backend"})
		return
	}
	attempts := g.cfg.MaxAttempts
	if attempts > len(order) {
		attempts = len(order)
	}

	// The escaped path keeps a name holding "/" one segment on the
	// replica too.
	endpoint := r.URL.EscapedPath()
	var lastErr error
	spill429 := false
	for attempt := 0; attempt < attempts; attempt++ {
		b := g.backends[order[attempt]]
		b.metrics.Requests.Add(1)
		if attempt > 0 {
			b.metrics.Retries.Add(1)
			g.Metrics.Retries.Add(1)
		}
		psp := tr.StartSpan("proxy")
		resp, err := g.attempt(actx, b, r.Method, endpoint, out)
		psp.EndDetail(b.url)
		if err != nil {
			b.metrics.Failures.Add(1)
			b.health.reportFailure()
			lastErr = err
			if r.Context().Err() != nil {
				// The client is gone; nothing to retry for.
				break
			}
			if attempt+1 < attempts && (idempotent || isDialError(err)) {
				continue
			}
			break
		}
		b.health.reportRequestSuccess()
		if resp.StatusCode == http.StatusTooManyRequests {
			b.metrics.Shed429.Add(1)
			b.cooldownUntil.Store(time.Now().Add(retryAfter(resp)).UnixNano())
			if attempt+1 < attempts {
				// Spill over: the next ring candidate gets one shot. A
				// 429 always precedes processing, so this is safe for
				// non-idempotent requests too.
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				spill429 = true
				continue
			}
		}
		if attempt > 0 {
			if spill429 {
				g.Metrics.Spilled429.Add(1)
			} else {
				g.Metrics.SpilledFailure.Add(1)
			}
		}
		forward(w, resp, out.copyBuf)
		return
	}
	g.Metrics.Errors.Add(1)
	writeJSON(w, http.StatusBadGateway, errorResponse{
		Error: fmt.Sprintf("gateway: all attempts failed: %v", lastErr),
	})
}

// attempt issues one backend round trip on b's Transport, tracking the
// in-flight gauge the bounded-load router reads. It relays, as
// httputil.ReverseProxy does: a 3xx comes back as the answer, never
// followed. out, when set, supplies the body and header; the response
// body is the caller's to close.
func (g *Gateway) attempt(ctx context.Context, b *backend, method, endpoint string, out *outbound) (*http.Response, error) {
	inflight := b.metrics.Inflight.Add(1)
	b.metrics.InflightPeak.SetMax(inflight)
	defer b.metrics.Inflight.Add(-1)
	target, err := b.target(endpoint)
	if err != nil {
		return nil, err
	}
	req := &http.Request{
		Method:     method,
		URL:        target,
		Proto:      "HTTP/1.1",
		ProtoMajor: 1,
		ProtoMinor: 1,
	}
	if out == nil {
		req.Header = http.Header{}
	} else {
		req.Header = out.header
		if n := out.body.Len(); n > 0 {
			req.Body, req.GetBody, req.ContentLength = out.newBody(), out.rewind, int64(n)
		}
	}
	resp, err := b.transport.RoundTrip(req.WithContext(ctx))
	if err != nil {
		// The error http.Client.Do would return, so a 502 reads the same.
		return nil, &url.Error{Op: method[:1] + strings.ToLower(method[1:]), URL: target.Redacted(), Err: err}
	}
	return resp, nil
}

// target returns the URL of endpoint on b: prebuilt for /predict and
// /observe, parsed for the rest.
func (b *backend) target(endpoint string) (*url.URL, error) {
	switch endpoint {
	case "/predict":
		return b.predict, nil
	case "/observe":
		return b.observe, nil
	}
	return url.Parse(b.url + endpoint)
}

// retryAfter parses a 429's Retry-After seconds, capped so a
// misbehaving replica cannot cool itself out of the fleet.
func retryAfter(resp *http.Response) time.Duration {
	s, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || s < 0 {
		return time.Second
	}
	// Compare in seconds: a huge s overflows the Duration product.
	if s > int(cooldownCap/time.Second) {
		return cooldownCap
	}
	return time.Duration(s) * time.Second
}

// isDialError reports whether err happened while establishing the
// connection — before any request bytes could have reached a backend,
// which is what makes retrying a non-idempotent request safe.
func isDialError(err error) bool {
	var op *net.OpError
	return errors.As(err, &op) && op.Op == "dial"
}

// handleHealthz summarizes fleet liveness: 200 while at least one
// backend is live, 503 once none are.
func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	type backendHealthz struct {
		URL         string `json:"url"`
		Live        bool   `json:"live"`
		LastProbeOK bool   `json:"last_probe_ok"`
		Ejections   uint64 `json:"ejections"`
	}
	out := struct {
		Status   string           `json:"status"`
		Live     int              `json:"live"`
		Total    int              `json:"total"`
		Backends []backendHealthz `json:"backends"`
	}{Total: len(g.backends)}
	for _, b := range g.backends {
		live := b.health.live()
		if live {
			out.Live++
		}
		out.Backends = append(out.Backends, backendHealthz{
			URL: b.url, Live: live,
			LastProbeOK: b.health.lastProbeOK.Load(),
			Ejections:   b.health.ejections.Load(),
		})
	}
	status := http.StatusOK
	out.Status = "ok"
	if out.Live == 0 {
		status = http.StatusServiceUnavailable
		out.Status = "down"
	} else if out.Live < out.Total {
		out.Status = "degraded"
	}
	writeJSON(w, status, out)
}

// handleModels aggregates every live backend's /models. Replicas share
// one registry, so the union is normally identical to any single
// answer; deduplication by (name, version) covers a replica that has
// not yet observed a just-published version.
func (g *Gateway) handleModels(w http.ResponseWriter, r *http.Request) {
	type modelsDoc struct {
		Models []registry.Meta `json:"models"`
	}
	seen := make(map[string]bool)
	var merged []registry.Meta
	var lastErr error
	answered := false
	for _, b := range g.backends {
		if !b.health.live() {
			continue
		}
		resp, err := g.attempt(r.Context(), b, http.MethodGet, "/models", nil)
		if err != nil {
			b.health.reportFailure()
			lastErr = err
			continue
		}
		var doc modelsDoc
		err = json.NewDecoder(resp.Body).Decode(&doc)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			lastErr = fmt.Errorf("backend %s /models: status %d, %v", b.url, resp.StatusCode, err)
			continue
		}
		answered = true
		for _, m := range doc.Models {
			key := m.Name + "@" + strconv.Itoa(m.Version)
			if !seen[key] {
				seen[key] = true
				merged = append(merged, m)
			}
		}
	}
	if !answered {
		g.Metrics.Errors.Add(1)
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{
			Error: fmt.Sprintf("gateway: no backend answered /models: %v", lastErr),
		})
		return
	}
	sort.Slice(merged, func(i, j int) bool {
		if merged[i].Name != merged[j].Name {
			return merged[i].Name < merged[j].Name
		}
		return merged[i].Version < merged[j].Version
	})
	writeJSON(w, http.StatusOK, modelsDoc{Models: merged})
}
