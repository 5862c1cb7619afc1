// Command lam-gateway fronts a fleet of lam-serve replicas: one HTTP
// endpoint that multiplies serving capacity while keeping each
// replica's micro-batch coalescer fed with dense same-model traffic.
//
// Usage:
//
//	lam-gateway -backends http://127.0.0.1:9001,http://127.0.0.1:9002 \
//	            [-addr :8080] [-attempts 2] [-bound-factor 1.25] \
//	            [-probe-interval 500ms] [-probe-timeout 2s] \
//	            [-eject-after 3] [-readmit-after 2] \
//	            [-pprof localhost:6061] \
//	            [-log-format text] [-trace-slow 0]
//
// -pprof exposes net/http/pprof on a separate listener (kept off the
// proxy address) for profiling the gateway itself under load.
//
// Routing: POST /predict, POST /observe and /models/{name}/rollout are
// routed by consistent hashing on the model name — each model has a
// primary replica and a deterministic spill-over order through the
// rest of the fleet, with a bounded-load check (-bound-factor) that
// moves requests off a replica whose in-flight count runs past the
// fleet mean. This is the only routing policy.
//
// Health: every backend's GET /readyz is probed each -probe-interval;
// -eject-after consecutive failures (probes and request-level
// connection failures both count) eject it, probes continue while
// ejected, and -readmit-after consecutive probe successes re-admit it.
//
// Spill-over: a connection failure or 429 moves the request to the
// next ring candidate within a total budget of -attempts; 429
// Retry-After values are respected as routing cooldowns and forwarded
// when every attempt sheds. A 429 spills over for every request.
// /predict and rollout GETs retry after any connection failure;
// /observe and rollout POSTs only after a dial error, when the request
// provably never reached a backend, so an observation is never
// ingested twice and an action never applied twice.
//
// Endpoints:
//
//	GET  /healthz  — fleet summary (503 once no backend is live)
//	GET  /models   — union of every live backend's /models
//	GET  /metrics  — Prometheus text exposition
//	GET  /trace/recent — the last 256 finished request traces
//	POST /predict  — proxied, byte-identical to the direct replica call
//	POST /observe  — proxied (same consistent routing, so a model's
//	                 observation window stays on one replica)
//	GET/POST /models/{name}/rollout — proxied to the model's home
//	                 replica: progressive-delivery state and operator
//	                 actions (see lam-serve -rollout)
//
// SIGINT/SIGTERM drain gracefully, like lam-serve.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/* on the DefaultServeMux the -pprof listener serves
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"lam/internal/gateway"
	"lam/internal/telemetry"
)

// lg is the process logger, replaced in main once -log-format is
// parsed.
var lg = slog.Default()

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	backends := flag.String("backends", "", "comma-separated lam-serve base URLs (required)")
	attempts := flag.Int("attempts", 2, "total backend attempts per request (first try + retries)")
	boundFactor := flag.Float64("bound-factor", 1.25, "bounded-load spill threshold as a multiple of the fleet-mean in-flight count (<= 1 disables)")
	probeInterval := flag.Duration("probe-interval", 500*time.Millisecond, "active /readyz probe interval per backend")
	probeTimeout := flag.Duration("probe-timeout", 2*time.Second, "one probe's round-trip timeout")
	ejectAfter := flag.Int("eject-after", 3, "consecutive failures (probe or request) that eject a backend")
	readmitAfter := flag.Int("readmit-after", 2, "consecutive probe successes that re-admit an ejected backend")
	drain := flag.Duration("drain", 10*time.Second, "graceful-shutdown drain window")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6061; empty disables)")
	logFormat := flag.String("log-format", "text", "structured-log output format: text or json")
	traceSlow := flag.Duration("trace-slow", 0, "log the span tree of any proxied request slower than this (0 disables)")
	flag.Parse()

	logger, err := telemetry.NewLogger(os.Stderr, *logFormat)
	if err != nil {
		fatal(err)
	}
	lg = logger.With("component", "lam-gateway")

	if *pprofAddr != "" {
		go func(addr string) {
			lg.Info("pprof listening", "url", "http://"+addr+"/debug/pprof/")
			if err := http.ListenAndServe(addr, nil); err != nil {
				lg.Error("pprof listener failed", "err", err)
			}
		}(*pprofAddr)
	}

	if *backends == "" {
		fatal(fmt.Errorf("-backends is required"))
	}
	var urls []string
	for _, u := range strings.Split(*backends, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}

	g, err := gateway.New(urls, gateway.Config{
		Health: gateway.HealthConfig{
			Interval:     *probeInterval,
			Timeout:      *probeTimeout,
			EjectAfter:   *ejectAfter,
			ReadmitAfter: *readmitAfter,
		},
		BoundFactor: *boundFactor,
		MaxAttempts: *attempts,
		Logger:      lg,
		TraceSlow:   *traceSlow,
	})
	if err != nil {
		fatal(err)
	}
	defer g.Close()
	lg.Info("routing configured", "backends", len(urls))
	for _, u := range urls {
		lg.Info("backend", "url", u)
	}

	srv := &http.Server{
		Addr:    *addr,
		Handler: g.Handler(),
		// Same slow-client protections as lam-serve; proxied
		// predictions are bounded by the replicas, not a write timeout.
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		lg.Info("listening", "addr", *addr)
		errc <- srv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		fatal(err)
	case <-ctx.Done():
		stop() // restore default signal handling: a second ^C kills hard
		lg.Info("shutting down", "drain", *drain)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			fatal(fmt.Errorf("shutdown: %w", err))
		}
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal(err)
		}
	}
}

func fatal(err error) {
	lg.Error("fatal", "err", err)
	os.Exit(1)
}
