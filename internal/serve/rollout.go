package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"time"

	"lam/internal/lamerr"
	"lam/internal/ml"
	"lam/internal/online"
	"lam/internal/registry"
	"lam/internal/rollout"
	"lam/internal/telemetry"
)

// AttachRollout wires a progressive-delivery controller into the
// server: newly published versions shadow-score and canary instead of
// swapping straight into the latest pointer, and the
// /models/{name}/rollout endpoints start serving. Call after
// AttachOnline (the controller pauses the plane's retrainer while a
// candidate is under evaluation) and before Handler.
func (s *Server) AttachRollout(c *rollout.Controller) {
	s.rollout = c
	s.models.rollout = c
	if c.Log == nil {
		c.Log = s.Log
	}
	// Candidates load through the pinned-version cache so they share
	// the server's Workers setting — shadow predictions are
	// bit-identical to serving the candidate directly.
	c.Load = func(ctx context.Context, name string, version int) (*registry.Model, error) {
		return s.models.pinned(ctx, name, version)
	}
	c.OnBegin = func(name string, _ int) {
		// One candidate at a time: a second publish mid-rollout would
		// invalidate the comparison window.
		if s.online != nil {
			s.online.SetRetrainPaused(name, true)
		}
	}
	c.OnPromote = func(name string, _ int) {
		// The pin is gone; swap the winner into the hot pointer eagerly
		// and re-arm adaptation on a clean window.
		_, _ = s.Reload(name)
		if s.online != nil {
			s.online.ResetWindow(name)
			s.online.SetRetrainPaused(name, false)
		}
	}
	c.OnRollback = func(name string, _ int) {
		// The candidate never entered the latest pointer (the pin kept
		// it out), so there is nothing to un-swap: just re-arm the
		// plane. The rollout-era window mixed canary traffic; reset it
		// so the incumbent is judged on fresh samples.
		if s.online != nil {
			s.online.ResetWindow(name)
			s.online.SetRetrainPaused(name, false)
		}
	}
	// Shadow divergence is a relative quantity on the shared
	// nanosecond bucket ladder: 1.0 (candidate differs from the served
	// prediction by 100%) maps to 1s.
	s.shadowDiv = s.Telemetry.Histogram("lam_rollout_shadow_divergence",
		"Relative divergence between shadow and served predictions (1.0 = 1s bucket)")
	s.Telemetry.CollectFunc("lam_rollout_state",
		"Rollout phase per model (0 idle, 1 shadow, 2 canary)",
		telemetry.TypeGauge, func(emit func([]telemetry.Label, float64)) {
			for _, st := range c.Snapshot() {
				var v float64
				switch st.Phase {
				case rollout.PhaseShadow.String():
					v = 1
				case rollout.PhaseCanary.String():
					v = 2
				}
				emit([]telemetry.Label{telemetry.L("model", st.Model)}, v)
			}
		})
	s.Telemetry.CollectFunc("lam_rollout_promotions_total",
		"Candidates promoted after winning every canary gate",
		telemetry.TypeCounter, func(emit func([]telemetry.Label, float64)) {
			emit(nil, float64(c.Promotions()))
		})
	s.Telemetry.CollectFunc("lam_rollout_rollbacks_total",
		"Candidates rolled back and quarantined",
		telemetry.TypeCounter, func(emit func([]telemetry.Label, float64)) {
			emit(nil, float64(c.Rollbacks()))
		})
}

// rolloutView returns the model's active rollout view for a latest
// (version 0) request; explicit version pins bypass the rollout.
func (s *Server) rolloutView(name string, version int) *rollout.View {
	if s.rollout == nil || version != 0 {
		return nil
	}
	return s.rollout.ActiveView(name)
}

// divergenceDuration maps |shadow-served|/|served| onto the shared
// nanosecond histogram ladder (1.0 relative divergence = 1s).
func divergenceDuration(served, shadow float64) time.Duration {
	denom := math.Abs(served)
	if denom < 1e-12 {
		denom = 1e-12
	}
	rel := math.Abs(shadow-served) / denom
	if rel > 1e6 {
		rel = 1e6
	}
	return time.Duration(rel * 1e9)
}

// recordShadow publishes one shadow-scored batch: divergence samples
// into the histogram and the raw predictions to the controller's sink
// (which must copy — the slices are pooled scratch).
func (s *Server) recordShadow(rv *rollout.View, X [][]float64, served, shadow []float64) {
	if s.shadowDiv != nil {
		for i := range shadow {
			s.shadowDiv.Observe(divergenceDuration(served[i], shadow[i]))
		}
	}
	if sink := s.rollout.ShadowSink; sink != nil {
		sink(rv.Model, rv.CandidateVersion(), X, shadow)
	}
}

// shadowScoreRow shadow-scores one served single-row request with the
// candidate. Runs after the response is written; a candidate failure
// here is silent by design (shadow must never surface to the client).
func (s *Server) shadowScoreRow(ctx context.Context, rv *rollout.View, x []float64, served float64) {
	sp := telemetry.StartSpan(ctx, "shadow")
	defer sp.End()
	y, err := rv.Candidate.Predict(ctx, x)
	if err != nil {
		return
	}
	if s.shadowDiv != nil {
		s.shadowDiv.Observe(divergenceDuration(served, y))
	}
	if sink := s.rollout.ShadowSink; sink != nil {
		sink(rv.Model, rv.CandidateVersion(), [][]float64{x}, []float64{y})
	}
}

// shadowScoreBatch shadow-scores one served batch request. The
// candidate scores into pooled scratch via the allocation-free batch
// path, so shadowing adds zero per-row allocations to serving.
func (s *Server) shadowScoreBatch(ctx context.Context, rv *rollout.View, X [][]float64, served []float64) {
	sp := telemetry.StartSpan(ctx, "shadow")
	defer sp.End()
	buf := ml.GetScratch(len(X))
	defer ml.PutScratch(buf)
	if err := rv.Candidate.PredictBatchInto(ctx, X, *buf); err != nil {
		return
	}
	s.recordShadow(rv, X, served, *buf)
}

// rolloutObserve is handleObserve's ingest path. With no active
// rollout (rv nil) every row is the incumbent's and no rollout status
// is returned. In shadow, the incumbent serves every row and the
// candidate scores them all on the side; in canary, rows are
// partitioned by the same deterministic hash /predict routes with,
// each side scored by its own version. The incumbent's rows go through
// the online plane, the candidate's through the controller; both land
// in the plane's ledger, where the gate reads them.
func (s *Server) rolloutObserve(ctx context.Context, m *registry.Model, rv *rollout.View, X [][]float64, obs []float64) (online.Status, *rollout.Status, error) {
	incX, incObs, candX, candObs, candSpan := X, obs, X, obs, "shadow"
	if rv != nil && rv.Phase == rollout.PhaseCanary {
		incX, candX = make([][]float64, 0, len(X)), make([][]float64, 0, len(X))
		incObs, candObs = make([]float64, 0, len(obs)), make([]float64, 0, len(obs))
		candSpan = "predict"
		for i := range X {
			if rv.RouteRow(X[i]) {
				candX, candObs = append(candX, X[i]), append(candObs, obs[i])
			} else {
				incX, incObs = append(incX, X[i]), append(incObs, obs[i])
			}
		}
	}
	// The spans below open on the trace itself: one context lookup for
	// all three.
	tr := telemetry.FromContext(ctx)
	var status online.Status
	inc := ml.GetScratch(len(incX))
	defer ml.PutScratch(inc)
	if len(incX) > 0 {
		psp := tr.StartSpan("predict")
		err := m.PredictBatchInto(ctx, incX, *inc)
		psp.End()
		if err != nil {
			return online.Status{}, nil, predictError(err)
		}
		isp := tr.StartSpan("observe_ingest")
		status, err = s.online.Observe(m, incX, *inc, incObs)
		isp.End()
		if err != nil {
			return online.Status{}, nil, err
		}
	} else {
		status = s.online.Status(m)
	}
	if rv == nil {
		return status, nil, nil
	}
	cand := ml.GetScratch(len(candX))
	defer ml.PutScratch(cand)
	if len(candX) > 0 {
		csp := tr.StartSpan(candSpan)
		err := rv.Candidate.PredictBatchInto(ctx, candX, *cand)
		csp.End()
		switch {
		case err != nil:
			// A candidate failing to score its rows is a gate signal in
			// itself, but never a client error: drop the rows and let the
			// incumbent side keep the gate honest.
			candObs = nil
		case rv.Phase == rollout.PhaseShadow:
			s.recordShadow(rv, X, *inc, *cand)
		}
	}
	rst := s.rollout.Ingest(ctx, m.Meta.Name, candObs, (*cand)[:len(candObs)])
	return status, &rst, nil
}

// rolloutActionRequest is the POST /models/{name}/rollout body.
type rolloutActionRequest struct {
	// Action is one of "pause", "resume", "promote", "rollback".
	Action string `json:"action"`
}

// handleRolloutGet reports a model's rollout state. Resolving the
// model first both 404s unknown names and materializes (or resumes,
// after a restart) the controller's state for it.
func (s *Server) handleRolloutGet(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if _, err := s.load(r.Context(), name, 0); err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, s.rollout.Status(name))
}

// handleRolloutPost applies an operator action to a model's rollout.
func (s *Server) handleRolloutPost(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if _, err := s.load(r.Context(), name, 0); err != nil {
		writeError(w, err)
		return
	}
	var req rolloutActionRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, fmt.Errorf("serve: %w: %w", lamerr.ErrBadRequest, err))
		return
	}
	var err error
	switch req.Action {
	case "pause":
		err = s.rollout.Pause(name, true)
	case "resume":
		err = s.rollout.Pause(name, false)
	case "promote":
		err = s.rollout.ForcePromote(name)
	case "rollback":
		err = s.rollout.ForceRollback(name)
	default:
		writeError(w, fmt.Errorf("serve: %w: unknown rollout action %q (want pause, resume, promote or rollback)",
			lamerr.ErrBadRequest, req.Action))
		return
	}
	if errors.Is(err, rollout.ErrNoRollout) {
		writeJSON(w, http.StatusConflict, errorResponse{Error: err.Error()})
		return
	}
	if err != nil {
		writeError(w, err)
		return
	}
	if s.Log != nil {
		s.Log.Info("rollout action", "model", name, "action", req.Action)
	}
	writeJSON(w, http.StatusOK, s.rollout.Status(name))
}
