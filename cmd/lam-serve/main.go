// Command lam-serve is the HTTP prediction service: it loads trained
// models from a registry directory (as written by lam-predict
// -registry or lam.Registry) and answers JSON prediction requests
// bit-identical to the equivalent library calls.
//
// Usage:
//
//	lam-serve -registry ./models [-addr :8080] [-workers N]
//	         [-max-batch 32]
//	         [-max-inflight 0] [-queue 64]
//	         [-warm name1,name2] [-inject-latency 0]
//	         [-pprof localhost:6060]
//	         [-online] [-window 512] [-drift-threshold 1.5]
//	         [-min-samples 64] [-holdout 0.25]
//	         [-rollout] [-rollout-stages 0.01,0.10,0.50,1.0]
//	         [-rollout-shadow-samples 64] [-rollout-stage-samples 64]
//	         [-rollout-margin 0.95] [-rollout-holddown 1h]
//	         [-log-format text] [-trace-slow 0]
//
// Throughput knobs: -max-batch caps how many single-row /predict
// requests that queued behind a running score of the same model are
// scored as one compiled-plane batch (bit identical to unbatched
// scoring; a request that finds its model idle is scored at once; <= 1
// disables); -max-inflight/-queue bound concurrency and shed overload
// with 429 + Retry-After (0 disables admission control); -pprof exposes
// net/http/pprof on a separate listener for CPU/heap profiling under
// load. See the README's "Capacity planning & tuning" section and
// cmd/lam-loadgen for measuring the effect.
//
// Endpoints:
//
//	GET  /healthz  — liveness + stored-model count
//	GET  /readyz   — readiness: registry reachable and every -warm
//	                 model resident (503 while warming; the endpoint a
//	                 fleet gateway health-checks)
//	GET  /models   — every stored model version's metadata
//	GET  /metrics  — Prometheus text exposition
//	GET  /trace/recent — the last 256 finished request traces
//	POST /predict  — {"model":"name","x":[…]} or
//	                 {"model":"name","version":2,"batch":[[…],[…]]}
//
// With -online, the continuous-learning plane is attached:
//
//	POST /observe              — ground-truth ingest (single or batch)
//	GET  /models/{name}/drift  — window accuracy + detector state
//
// Observed runtimes feed a per-model sliding window; when the windowed
// MAPE degrades past -drift-threshold × the model's recorded test
// MAPE, a background retrain merges the window with the original
// training set and republishes only if it improves — the server then
// hot-swaps to the new version without interrupting in-flight
// requests. See cmd/lam-replay for an end-to-end demonstration.
//
// -window sizes both the drift window and every per-version APE ring
// of the plane's accuracy ledger, which the rollout gates and
// lam_served_ape read.
//
// With -rollout (requires -online), retrained or out-of-band published
// versions go through progressive delivery instead of swapping in
// directly: the candidate shadow-scores live traffic, then serves a
// deterministically hashed fraction through the -rollout-stages canary
// steps, and is promoted only when its windowed served-APE p50/p90
// beat the incumbent's by the -rollout-margin ratio at every gate; a
// candidate that fails a gate is rolled back and quarantined for
// -rollout-holddown. A gate's window is at most -window samples, so
// -rollout-shadow-samples and -rollout-stage-samples may not exceed
// it. The state machine is driven and inspected over HTTP:
//
//	GET  /models/{name}/rollout — phase, stage, windows, hold-downs
//	POST /models/{name}/rollout — {"action":"pause"|"resume"|
//	                               "promote"|"rollback"}
//
// Rollout state persists in the registry (rollout.json next to the
// model's version directories), so a restarted server resumes an
// in-flight rollout — pin, phase and quarantine intact — rather than
// blindly serving the newest artifact.
//
// SIGINT/SIGTERM trigger a graceful shutdown: in-flight requests get a
// drain window, new connections are refused. See the README's
// "Serving predictions" and "Online adaptation" sections for curl
// quickstarts.
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
	"strconv"
	"strings"
	"syscall"
	"time"

	"lam/internal/online"
	"lam/internal/registry"
	"lam/internal/rollout"
	"lam/internal/serve"
	"lam/internal/telemetry"
)

// parseStages parses the -rollout-stages comma list of fractions.
func parseStages(s string) ([]float64, error) {
	var out []float64
	prev := 0.0
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		f, err := strconv.ParseFloat(part, 64)
		if err != nil {
			return nil, fmt.Errorf("-rollout-stages: bad fraction %q: %w", part, err)
		}
		if f <= prev || f > 1 {
			return nil, fmt.Errorf("-rollout-stages: fractions must ascend in (0, 1], got %q", s)
		}
		out = append(out, f)
		prev = f
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-rollout-stages: no fractions in %q", s)
	}
	return out, nil
}

// lg is the process logger, replaced in main once -log-format is
// parsed.
var lg = slog.Default()

// servePprof exposes the runtime profiler on its own listener, kept off
// the API address so profiling endpoints are never internet-facing by
// accident. The prediction mux is a dedicated ServeMux, so the pprof
// handlers registered on the DefaultServeMux are reachable only here.
func servePprof(addr string) {
	lg.Info("pprof listening", "url", "http://"+addr+"/debug/pprof/")
	if err := http.ListenAndServe(addr, nil); err != nil {
		lg.Error("pprof listener failed", "err", err)
	}
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	regDir := flag.String("registry", "", "model registry directory (required; see lam-predict -registry)")
	workers := flag.Int("workers", 0, "worker pool size for batch prediction (0 = GOMAXPROCS, 1 = sequential)")
	drain := flag.Duration("drain", 10*time.Second, "graceful-shutdown drain window")
	maxBatch := flag.Int("max-batch", 32, "score up to this many single-row /predict requests that queued behind a running score of the same model as one batch (<= 1 disables)")
	maxInflight := flag.Int("max-inflight", 0, "bound on concurrently served /predict requests (0 disables admission control)")
	queueLen := flag.Int("queue", 64, "requests allowed to wait for an in-flight slot beyond -max-inflight; a full queue sheds with 429")
	warm := flag.String("warm", "", "comma-separated model names to preload; GET /readyz reports 503 until all are resident (fleet readiness gate)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060; empty disables)")
	injectLatency := flag.Duration("inject-latency", 0, "fault injection: sleep this long inside every /predict while holding its admission slot (fleet/capacity testing only; 0 = off)")
	onlineOn := flag.Bool("online", false, "enable the online adaptation plane (/observe ingest, drift detection, background retrain, hot swap)")
	window := flag.Int("window", 512, "online: size of the per-model drift window and of every per-version APE window the rollout gates read")
	driftThreshold := flag.Float64("drift-threshold", 1.5, "online: trip when windowed MAPE exceeds this factor × the model's recorded test MAPE")
	minSamples := flag.Int("min-samples", 64, "online: windowed samples required before the drift detector may trip")
	holdout := flag.Float64("holdout", 0.25, "online: fraction of the window held out to judge a retrained model")
	seed := flag.Int64("seed", 1, "online: seed for retrain splits and model randomness")
	rolloutOn := flag.Bool("rollout", false, "enable progressive delivery: new versions shadow-score, canary through staged traffic fractions, and promote or roll back on windowed APE (requires -online)")
	rolloutStages := flag.String("rollout-stages", "0.01,0.10,0.50,1.0", "rollout: comma-separated canary traffic fractions, ascending in (0, 1]")
	rolloutShadow := flag.Int("rollout-shadow-samples", 64, "rollout: candidate-scored observations the shadow gate needs before deciding")
	rolloutStage := flag.Int("rollout-stage-samples", 64, "rollout: candidate-served observations each canary gate needs")
	rolloutMargin := flag.Float64("rollout-margin", 0.95, "rollout: promote only when candidate windowed p50/p90 APE <= this ratio x the incumbent's")
	rolloutHolddown := flag.Duration("rollout-holddown", time.Hour, "rollout: quarantine window before a rolled-back version may canary again")
	logFormat := flag.String("log-format", "text", "structured-log output format: text or json")
	traceSlow := flag.Duration("trace-slow", 0, "log the span tree of any request slower than this (0 disables)")
	flag.Parse()

	logger, err := telemetry.NewLogger(os.Stderr, *logFormat)
	if err != nil {
		fatal(err)
	}
	lg = logger.With("component", "lam-serve")

	if *regDir == "" {
		fatal(fmt.Errorf("-registry is required"))
	}
	reg, err := registry.Open(*regDir)
	if err != nil {
		fatal(err)
	}
	metas, err := reg.List()
	if err != nil {
		fatal(err)
	}
	lg.Info("registry opened", "dir", *regDir, "versions", len(metas))
	for _, m := range metas {
		lg.Info("stored model", "model", m.Name, "version", m.Version, "kind", m.Kind,
			"workload", m.Workload, "machine", m.Machine)
	}

	if *pprofAddr != "" {
		go servePprof(*pprofAddr)
	}

	s := serve.New(reg)
	s.Workers = *workers
	s.Log = lg
	s.Tracer.Slow = *traceSlow
	s.Tracer.Logger = lg
	s.Coalesce = serve.CoalesceConfig{MaxBatch: *maxBatch}
	s.Admit = serve.AdmitConfig{MaxInflight: *maxInflight, Queue: *queueLen}
	if s.Coalesce.MaxBatch > 1 {
		lg.Info("coalescing enabled", "max_batch", *maxBatch)
	}
	if *maxInflight > 0 {
		lg.Info("admission control enabled", "max_inflight", *maxInflight, "queue", *queueLen)
	}
	if *injectLatency > 0 {
		s.InjectLatency = *injectLatency
		lg.Warn("fault injection enabled: added latency per /predict (testing aid, not for production)",
			"inject_latency", *injectLatency)
	}
	if *warm != "" {
		for _, name := range strings.Split(*warm, ",") {
			if name = strings.TrimSpace(name); name != "" {
				s.WarmNames = append(s.WarmNames, name)
			}
		}
		// Warm concurrently with serving: the listener comes up
		// immediately and /readyz flips to 200 once every named model
		// is resident.
		go func() {
			if err := s.Warm(); err != nil {
				lg.Error("warm failed; readyz will not report ready", "err", err)
				return
			}
			lg.Info("warmed, ready", "models", len(s.WarmNames))
		}()
	}
	var plane *online.Plane
	if *onlineOn {
		plane = online.New(reg, online.Config{
			WindowSize: *window,
			Detector: online.DetectorConfig{
				DegradeFactor: *driftThreshold,
				MinSamples:    *minSamples,
			},
			HoldoutFraction: *holdout,
			Seed:            *seed,
			Workers:         *workers,
		})
		defer plane.Close()
		s.AttachOnline(plane)
		lg.Info("online adaptation enabled", "window", *window,
			"drift_threshold", *driftThreshold, "min_samples", *minSamples)
	}
	if *rolloutOn {
		if !*onlineOn {
			fatal(fmt.Errorf("-rollout requires -online (the rollout gates feed on /observe ground truth)"))
		}
		stages, err := parseStages(*rolloutStages)
		if err != nil {
			fatal(err)
		}
		ctrl := rollout.New(reg, plane.Ledger(), rollout.Config{
			Stages:        stages,
			ShadowSamples: *rolloutShadow,
			StageSamples:  *rolloutStage,
			PromoteRatio:  *rolloutMargin,
			Holddown:      *rolloutHolddown,
		})
		// A gate that needs more samples than the APE window holds could
		// never decide: the rollout would shadow forever.
		if cfg := ctrl.Config(); max(cfg.ShadowSamples, cfg.StageSamples) > *window {
			fatal(fmt.Errorf("-rollout-shadow-samples (%d) and -rollout-stage-samples (%d) may not exceed -window (%d)",
				cfg.ShadowSamples, cfg.StageSamples, *window))
		}
		s.AttachRollout(ctrl)
		lg.Info("progressive delivery enabled", "stages", ctrl.Config().Stages,
			"shadow_samples", *rolloutShadow, "stage_samples", *rolloutStage,
			"margin", *rolloutMargin, "holddown", *rolloutHolddown)
	}
	srv := &http.Server{
		Addr:    *addr,
		Handler: s.Handler(),
		// Per-request contexts are cancelled when the client
		// disconnects, which cancels in-flight batch predictions
		// between rows. The timeouts close the slow-client
		// (slowloris) connection-exhaustion hole; large batches are
		// bounded by the serve layer's request-size cap rather than a
		// write timeout, so slow *predictions* still complete.
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
