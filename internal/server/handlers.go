// Endpoint handlers of the evaluation service. Each work handler decodes
// and validates its request (api.go), then calls straight into the core
// facade — the simulators memoise by content key, so identical
// concurrent requests coalesce onto a single computation.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"runtime/debug"
	"strings"

	"supernpu/internal/core"
	"supernpu/internal/estimator"
	"supernpu/internal/faultinject"
	"supernpu/internal/guard"
	"supernpu/internal/obs"
	"supernpu/internal/parallel"
	"supernpu/internal/workload"
)

// writeJSON encodes v with a trailing newline. Encoding a response struct
// cannot fail; a broken client connection surfaces in the request log only.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// writeError sends the uniform error envelope.
func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, apiError{Error: msg})
}

// modelError maps a failed model call onto its HTTP answer: 400 for a
// design the model cannot build (core.ErrUnknownDesign, the one model
// error a decoded request can carry), 503 for a cancellation ("request
// timed out: …" once the deadline has passed), and 422 for anything else,
// which /v1/evaluate degrades.
func modelError(err error) (int, string) {
	switch {
	case errors.Is(err, core.ErrUnknownDesign):
		return http.StatusBadRequest, err.Error()
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusServiceUnavailable, "request timed out: " + err.Error()
	case guard.IsCancellation(err):
		return http.StatusServiceUnavailable, err.Error()
	}
	return http.StatusUnprocessableEntity, err.Error()
}

// evaluateSafely runs the faulted evaluation with panics converted into
// errors, so a simulation that blows up outside the worker pool still reaches
// the degraded-response path instead of the outer wrapper's 500. The context
// carries the deadline limit set, so the simulators' cancellation
// checkpoints stop the work once it passes.
func evaluateSafely(ctx context.Context, d core.Design, net workload.Network, batch int, fm *faultinject.Model) (ev *core.Evaluation, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &parallel.PanicError{Value: v, Stack: debug.Stack()}
		}
	}()
	return core.EvaluateFaulted(ctx, d, net, batch, fm)
}

// handleEvaluate serves POST /v1/evaluate. When the (possibly fault-injected)
// simulation fails or panics, the handler degrades gracefully: it answers 200
// with the analytical roofline estimate, "degraded": true and the reason,
// rather than a 5xx — only bad input earns a 400, and 422 is reserved for
// requests that cannot be evaluated even analytically. A request that dies
// because its own deadline passed or its client hung up is not "degraded":
// it answers 503 with the context's error. Identical requests get
// identical bytes: the simulators memoise a deterministic failure like any
// other result, so a repeat costs one cache hit and degrades the same way.
func (s *Server) handleEvaluate(w http.ResponseWriter, r *http.Request) {
	var req EvaluateRequest
	if err := decodeJSON(r.Body, &req); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	d, net, err := req.resolve()
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	ev, err := evaluateSafely(r.Context(), d, net, req.Batch, s.opts.Fault)
	if err != nil {
		if status, msg := modelError(err); status != http.StatusUnprocessableEntity {
			writeError(w, status, msg)
			return
		}
		s.degrade(w, r, d, net, req.Batch, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, evaluationResponse(ev))
}

// degrade serves the analytical-roofline fallback for /v1/evaluate: 200 with
// "degraded": true and the reason, or 422 when even the roofline cannot be
// computed.
func (s *Server) degrade(w http.ResponseWriter, r *http.Request, d core.Design, net workload.Network, batch int, reason string) {
	fb, ferr := core.EvaluateAnalytical(r.Context(), d, net, batch)
	if ferr != nil {
		writeError(w, http.StatusUnprocessableEntity, reason)
		return
	}
	httpDegraded.Inc()
	s.opts.Logger.Printf("server: degraded evaluation of %s on %s: %s", d.Name(), net.Name, reason)
	resp := evaluationResponse(fb)
	resp.Degraded = true
	resp.DegradedReason = reason
	writeJSON(w, http.StatusOK, resp)
}

// handleEstimate serves POST /v1/estimate.
func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	var req EstimateRequest
	if err := decodeJSON(r.Body, &req); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	cfg, err := req.resolve()
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	res, err := estimator.Estimate(r.Context(), cfg)
	if err != nil {
		status, msg := modelError(err)
		writeError(w, status, msg)
		return
	}
	writeJSON(w, http.StatusOK, estimateResponse(res))
}

// handleExplore serves POST /v1/explore.
func (s *Server) handleExplore(w http.ResponseWriter, r *http.Request) {
	var req ExploreRequest
	if err := decodeJSON(r.Body, &req); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if err := req.validate(); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	// The sweep runs under the request context (an abandoned client stops
	// scheduling new points) and the service's fault model, if any.
	var pts []core.SweepPoint
	var err error
	switch strings.ToLower(req.Sweep) {
	case "division":
		pts, err = core.ExploreDivision(r.Context(), req.Degrees, s.opts.Fault)
	case "width":
		pts, err = core.ExploreWidth(r.Context(), s.opts.Fault)
	case "registers":
		pts, err = core.ExploreRegisters(r.Context(), req.Width, req.Registers, s.opts.Fault)
	}
	if err != nil {
		status, msg := modelError(err)
		writeError(w, status, msg)
		return
	}
	writeJSON(w, http.StatusOK, sweepResponse(req.Sweep, pts))
}

// handleDesigns serves GET /v1/designs: the five evaluation design points.
func (s *Server) handleDesigns(w http.ResponseWriter, r *http.Request) {
	var out []DesignResponse
	for _, d := range core.DesignPoints() {
		switch d.Platform {
		case core.SFQ:
			out = append(out, DesignResponse{
				Name: d.Name(), Platform: "sfq",
				ArrayHeight: d.SFQ.ArrayHeight, ArrayWidth: d.SFQ.ArrayWidth,
				Registers:   d.SFQ.Registers,
				BufferBytes: d.SFQ.ActivationCapacity() + int64(d.SFQ.WeightBufBytes),
			})
		case core.CMOS:
			out = append(out, DesignResponse{
				Name: d.Name(), Platform: "cmos",
				ArrayHeight: d.CMOS.ArrayHeight, ArrayWidth: d.CMOS.ArrayWidth,
				BufferBytes: d.CMOS.BufferBytes,
			})
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// handleWorkloads serves GET /v1/workloads: the six evaluation CNNs.
func (s *Server) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	var out []WorkloadResponse
	for _, net := range workload.All() {
		out = append(out, WorkloadResponse{
			Name:        net.Name,
			Layers:      len(net.Layers),
			TotalMACs:   net.TotalMACs(),
			WeightBytes: net.TotalWeightBytes(),
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// handleHealthz serves GET /healthz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleMetrics serves GET /metrics: the process-wide obs registry in
// Prometheus text exposition format (version 0.0.4). It sits on the
// always-on side of the mux so scrapes keep answering under full load.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = obs.WritePrometheus(w)
}
