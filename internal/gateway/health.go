package gateway

import (
	"context"
	"io"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// HealthConfig tunes the active health checker and the ejection
// policy. The zero value is replaced by defaults in New.
type HealthConfig struct {
	// Interval between active probes of one backend's /readyz.
	Interval time.Duration
	// Timeout bounds one probe round trip.
	Timeout time.Duration
	// EjectAfter consecutive failures (probe failures and passive
	// request-level connection failures both count) ejects a backend.
	EjectAfter int
	// ReadmitAfter consecutive probe successes re-admits an ejected
	// backend: the first success moves it half-open, the ReadmitAfter-th
	// closes the circuit and client traffic resumes.
	ReadmitAfter int
}

func (c HealthConfig) withDefaults() HealthConfig {
	if c.Interval <= 0 {
		c.Interval = 500 * time.Millisecond
	}
	if c.Timeout <= 0 {
		c.Timeout = 2 * time.Second
	}
	if c.EjectAfter <= 0 {
		c.EjectAfter = 3
	}
	if c.ReadmitAfter <= 0 {
		c.ReadmitAfter = 2
	}
	return c
}

// health is one backend's liveness state machine. Failures arrive from
// two sources — the active prober and passive per-request connection
// failures reported by the proxy — and both feed the same consecutive-
// failure counter, so a dead replica under live traffic is ejected in
// one request burst instead of waiting out probe intervals.
//
// States: healthy (serving) → ejected after EjectAfter consecutive
// failures (no client traffic, probes continue) → half-open on the
// first probe success → healthy again after ReadmitAfter consecutive
// successes (a single failed probe while half-open drops straight back
// to ejected).
type health struct {
	ejected atomic.Bool

	mu          sync.Mutex
	consecFails int
	consecOKs   int
	cfg         HealthConfig

	// ejections counts healthy→ejected transitions (exported via
	// /metrics); lastProbeOK records the most recent probe outcome for
	// the /healthz summary.
	ejections   atomic.Uint64
	lastProbeOK atomic.Bool

	// lg and url annotate the state-transition log lines; both
	// transitions (ejection, readmission) are fleet-membership changes
	// an operator greps for.
	lg  *slog.Logger
	url string
}

func newHealth(cfg HealthConfig, lg *slog.Logger, url string) *health {
	if lg == nil {
		lg = slog.New(slog.DiscardHandler)
	}
	return &health{cfg: cfg, lg: lg, url: url}
}

// reportFailure records one failed probe or one request-level
// connection failure.
func (h *health) reportFailure() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.consecOKs = 0
	h.consecFails++
	if h.consecFails >= h.cfg.EjectAfter && !h.ejected.Load() {
		h.ejected.Store(true)
		h.ejections.Add(1)
		h.lg.Warn("backend ejected", "backend", h.url, "consecutive_failures", h.consecFails)
	}
}

// reportProbeSuccess records one successful /readyz probe. Only probe
// successes count toward re-admission: an ejected backend receives no
// client traffic, so request-level successes cannot exist, and a
// healthy backend's successes just reset the failure streak.
func (h *health) reportProbeSuccess() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.consecFails = 0
	if !h.ejected.Load() {
		return
	}
	h.consecOKs++
	if h.consecOKs >= h.cfg.ReadmitAfter {
		h.consecOKs = 0
		h.ejected.Store(false)
		h.lg.Info("backend readmitted", "backend", h.url)
	}
}

// reportRequestSuccess resets the failure streak after a request that
// reached the backend and got any HTTP response (a 4xx/5xx is the
// backend answering, not the backend being dead).
func (h *health) reportRequestSuccess() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.consecFails = 0
}

// live reports whether the backend may receive client traffic.
func (h *health) live() bool { return !h.ejected.Load() }

// probeLoop actively checks one backend's /readyz until ctx is done.
// Probes continue while ejected — that is the half-open path back in.
func probeLoop(ctx context.Context, rt http.RoundTripper, readyzURL string, h *health) {
	t := time.NewTicker(h.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		probeOnce(ctx, rt, readyzURL, h)
	}
}

// probeOnce issues one /readyz round trip and feeds the outcome into
// the state machine. Any 2xx is ready; anything else — non-2xx, a
// redirect included, timeout, connection refused — is a failure.
func probeOnce(ctx context.Context, rt http.RoundTripper, readyzURL string, h *health) {
	pctx, cancel := context.WithTimeout(ctx, h.cfg.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, readyzURL, nil)
	if err != nil {
		h.lastProbeOK.Store(false)
		h.reportFailure()
		return
	}
	resp, err := rt.RoundTrip(req)
	if err != nil {
		h.lastProbeOK.Store(false)
		h.reportFailure()
		return
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode/100 == 2 {
		h.lastProbeOK.Store(true)
		h.reportProbeSuccess()
	} else {
		h.lastProbeOK.Store(false)
		h.reportFailure()
	}
}
