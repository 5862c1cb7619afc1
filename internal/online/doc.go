// Package online is the continuous-learning plane behind lam-serve: it
// closes the loop the paper's hardware-transfer experiment motivates
// (a deployed hybrid model collapses when the machine or workload
// distribution shifts) by ingesting ground-truth observations, tracking
// served accuracy over a sliding window, detecting drift against the
// model's registry-recorded baseline, retraining in the background on
// the merged (original + observed) data, and republishing a new
// registry version only when it measurably improves — at which point
// the serving layer hot-swaps to it.
//
// The plane is deliberately layered below HTTP: internal/serve feeds it
// from POST /observe and exposes its state at GET /models/{name}/drift,
// but the same Plane drives library-level replay (see the end-to-end
// tests and cmd/lam-replay).
//
// Contracts callers rely on:
//
//   - Ingest is bounded: each model's window is a fixed-size flat ring
//     (capacity×arity features plus predicted and observed columns), so
//     memory does not grow with stream length, and Observe never
//     blocks on retraining.
//   - Ingest allocates nothing per row: Observe copies each row once,
//     into the ring, so callers may hand in pooled request memory; and
//     the canonical hybrids' analytical models (internal/workload)
//     score a row without allocating, so neither half of the adaptation
//     loop — serving the prediction, ingesting the truth — allocates
//     per row.
//   - Retraining is bounded to one run in flight per model and is
//     cancellable via Plane.Close.
//   - Publication is monotone and judged: a retrained candidate is
//     compared against the deployed model on a held-out slice of the
//     window and published — as a new, higher registry version — only
//     on improvement, so the served model never silently regresses.
//     The serving layer's hot swap (serve.Server) is likewise
//     monotone: the served version number never moves backwards.
//   - The detector has hysteresis (DegradeFactor to trip,
//     RecoverFactor to re-arm) plus MinSamples and MinMAPE guards, so
//     a handful of noisy observations cannot flap it.
//   - Served accuracy has one record, the Ledger: a bounded APE ring
//     per (model, version) read through sequence cursors. The rollout
//     gate, its status and lam_served_ape all read it, so they can
//     never disagree about a version's numbers.
package online
