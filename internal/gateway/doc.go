// Package gateway is the horizontal scale-out plane behind
// cmd/lam-gateway: an HTTP reverse proxy that fronts a fleet of
// lam-serve replicas sharing one model registry, multiplying the
// single-core serving capacity measured in BENCH_PR5.json while
// preserving the properties the single-node planes rely on.
//
// # Routing
//
// Requests that address a model (POST /predict, POST /observe, GET and
// POST /models/{name}/rollout) are routed by consistent hashing on the model name: a static ring of
// virtual nodes (ring.go) maps each model to a primary replica and a
// deterministic spill-over sequence through the rest of the fleet.
// Affinity is the point — the replicas' micro-batch coalescers
// (internal/serve) only reach dense flushes when one model's
// single-row traffic lands on one replica, and per-model observation
// windows (internal/online) only see a coherent stream the same way.
// A bounded-load check (Config.BoundFactor, the consistent-hashing-
// with-bounded-loads rule) rotates a request off its primary while
// that replica's in-flight count exceeds BoundFactor × the fleet mean,
// so one hot model cannot melt one replica while the rest idle.
//
// # Health
//
// Every backend is probed at GET /readyz on an interval (health.go).
// EjectAfter consecutive failures — active probe failures and passive
// per-request connection failures share one counter — eject the
// backend: it receives no client traffic but probes continue. The
// first probe success moves it half-open; ReadmitAfter consecutive
// successes re-admit it. The ring never changes, so a recovered
// replica gets exactly its old models back.
//
// # Retry and spill-over
//
// A request that hits a connection failure or a 429 is retried on the
// next ring candidate, within a total budget of Config.MaxAttempts.
// 429s set a Retry-After cooldown that deprioritizes the shedding
// replica for subsequent routing decisions, and a 429 that survives
// the attempt budget is forwarded to the client with its Retry-After
// intact; a 429 spills over for every request, since the backend shed
// it before processing. /predict and rollout GETs are idempotent and
// retry after any transport failure; /observe and rollout POSTs mutate
// replica state, so they are retried only on dial errors (the request
// provably never reached a backend) — an observation is never ingested
// twice, and an action never applied twice.
//
// Responses stream through unchanged, so a proxied prediction is
// byte-identical to the direct replica call. The gateway relays rather
// than acting as a client (relay.go): each attempt is one RoundTrip on
// the backend's Transport, a 3xx is relayed rather than followed, the
// replica's Content-Length is passed on, the routing key is peeked with
// internal/wire's scanner, and the body, header and relay buffer of a
// request come from a pool. GET /models aggregates
// the fleet (union by name and version), GET /healthz summarizes
// per-backend liveness, and GET /metrics exports per-backend counters
// (requests, retries, failures, 429s, ejections, in-flight) plus a
// routing-decision latency histogram (metrics.go).
package gateway
