package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/family"
	"repro/internal/harness"
	"repro/internal/portfolio"
	"repro/internal/router"
	"repro/internal/suite"
)

// Route-endpoint defaults. The request may lower the deadline but never
// exceed the server's cap: one slow client must not occupy tool workers
// indefinitely.
const (
	defRouteMaxDeadline = 30 * time.Second
	defRouteHedgeDelay  = 100 * time.Millisecond
)

// routeRequest is the POST /v1/route body. The instance to route comes
// in exactly one of two forms: a stored suite instance (suite + instance
// — the known-optimal benchmark path, which also supplies the proven
// optimum for the threshold/optimal win conditions) or a raw circuit
// (device + qasm, optionally with a known optimal).
type routeRequest struct {
	// Stored-instance form.
	Suite    string `json:"suite,omitempty"`
	Instance string `json:"instance,omitempty"`
	// Raw form.
	Device string `json:"device,omitempty"`
	QASM   string `json:"qasm,omitempty"`
	// Optimal is the proven optimal metric value when the caller knows it
	// (raw form only; the stored form reads it from the sidecar).
	Optimal int `json:"optimal,omitempty"`

	// Tools is the comma-separated tool list ("" = the default race set:
	// lightsabre, ml-qls and tket).
	Tools string `json:"tools,omitempty"`
	// Trials is the SABRE-style trial count for tools that take one.
	Trials int `json:"trials,omitempty"`
	Seed   int `json:"seed,omitempty"`
	// DeadlineMS bounds the race; clamped to the server's cap, which is
	// also the default when omitted.
	DeadlineMS int `json:"deadline_ms,omitempty"`
	// Threshold is the win-condition ratio vs the proven optimum.
	Threshold float64 `json:"threshold,omitempty"`
	// HedgeMS overrides the server's hedge stagger; -1 disables hedging
	// (all tools launch at once).
	HedgeMS *int `json:"hedge_ms,omitempty"`
	// ToolTimeoutMS bounds each individual racer.
	ToolTimeoutMS int `json:"tool_timeout_ms,omitempty"`
	// IncludeQASM asks for the winner's transpiled circuit in the
	// response (omitted by default: routed circuits can be large).
	IncludeQASM bool `json:"include_qasm,omitempty"`
}

// routeResponse is the 200 body: the race result plus the winner's
// numbers and, on request, its transpiled circuit.
type routeResponse struct {
	Tool        string            `json:"tool"`
	Score       int               `json:"score"`
	Swaps       int               `json:"swaps"`
	Depth       int               `json:"depth"`
	Metric      string            `json:"metric"`
	Optimal     int               `json:"optimal,omitempty"`
	Ratio       float64           `json:"ratio,omitempty"`
	Reason      string            `json:"reason"`
	DeadlineHit bool              `json:"deadline_hit,omitempty"`
	ElapsedMS   int64             `json:"elapsed_ms"`
	Racers      []portfolio.Racer `json:"racers"`
	QASM        string            `json:"qasm,omitempty"`
}

// handleRoute races the requested tools (default: harness's race set)
// over one instance under a deadline budget and returns the best
// validated result — the portfolio front end of the service. Anytime
// semantics end to end: a deadline degrades to best-so-far with
// deadline_hit set; only "no tool produced a valid result" (or "every
// breaker is open") is an error, and both are 503 + Retry-After because
// they are transient by construction.
func (s *Server) handleRoute(w http.ResponseWriter, r *http.Request) {
	var req routeRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 8<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("bad route request: %w", err))
		return
	}
	if err := checkTrials(req.Trials); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	inst, err := s.resolveRouteInstance(r.Context(), &req)
	if err != nil {
		notFoundOr400(w, err)
		return
	}
	trials := req.Trials
	if trials <= 0 {
		trials = 8
	}
	entries, err := harness.RaceEntries(req.Tools, trials, s.opts.SelectTools)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}

	deadline := s.routeMaxDeadline()
	if req.DeadlineMS > 0 {
		if d := time.Duration(req.DeadlineMS) * time.Millisecond; d < deadline {
			deadline = d
		}
	}
	hedge := s.routeHedgeDelay()
	if req.HedgeMS != nil {
		if *req.HedgeMS < 0 {
			hedge = 0
		} else {
			hedge = time.Duration(*req.HedgeMS) * time.Millisecond
		}
	}

	p, err := router.Prepare(inst.circuit, inst.device)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	res, err := portfolio.Run(r.Context(), p, entries, portfolio.Options{
		Deadline:    deadline,
		ToolTimeout: time.Duration(req.ToolTimeoutMS) * time.Millisecond,
		Threshold:   req.Threshold,
		Optimal:     inst.optimal,
		Metric:      inst.metric,
		HedgeDelay:  hedge,
		Seed:        int64(req.Seed),
		Breakers:    s.breakers,
	})
	if err != nil {
		if r.Context().Err() != nil {
			return // client gone; the racers were cancelled with it
		}
		switch {
		case errors.Is(err, portfolio.ErrNoAdmissibleTool), errors.Is(err, portfolio.ErrNoResult):
			// Both are transient: breakers re-admit after their cooldown,
			// and a failed race says nothing about the next one.
			s.metrics.observeRoute(routeResultLabel(err))
			w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
			httpError(w, http.StatusServiceUnavailable, err)
		default:
			s.metrics.observeRoute("error")
			httpError(w, http.StatusInternalServerError, err)
		}
		return
	}
	label := "ok"
	if res.DeadlineHit {
		label = "deadline_degraded"
	}
	s.metrics.observeRoute(label)
	s.metrics.observeRouteWin(res.Tool)

	out := routeResponse{
		Tool:        res.Tool,
		Score:       res.Score,
		Swaps:       res.Winner.SwapCount,
		Depth:       res.Winner.RoutedDepth(),
		Metric:      string(inst.metric),
		Optimal:     inst.optimal,
		Ratio:       res.Ratio,
		Reason:      res.Reason,
		DeadlineHit: res.DeadlineHit,
		ElapsedMS:   res.ElapsedMS,
		Racers:      res.Racers,
	}
	if req.IncludeQASM {
		out.QASM = circuit.QASMString(res.Winner.Transpiled)
	}
	writeObj(w, http.StatusOK, out)
}

// routeInstance is a resolved routing target.
type routeInstance struct {
	circuit *circuit.Circuit
	device  *arch.Device
	metric  family.Metric
	optimal int
}

// resolveRouteInstance materializes the request's instance: either a
// stored suite instance (resident through the LRU/peer path, then read
// and cross-checked from the store) or a raw device + QASM payload.
func (s *Server) resolveRouteInstance(ctx context.Context, req *routeRequest) (*routeInstance, error) {
	stored := req.Suite != "" || req.Instance != ""
	raw := req.Device != "" || req.QASM != ""
	switch {
	case stored && raw:
		return nil, fmt.Errorf("route request mixes the stored form (suite, instance) with the raw form (device, qasm)")
	case stored:
		if req.Suite == "" || req.Instance == "" {
			return nil, fmt.Errorf("the stored form needs both suite and instance")
		}
		if strings.ContainsAny(req.Instance, "/\\") || strings.Contains(req.Instance, "..") {
			return nil, fmt.Errorf("bad instance name %q", req.Instance)
		}
		if _, _, err := s.resident(ctx, req.Suite); err != nil {
			return nil, err
		}
		li, err := family.ReadInstance(s.store.InstanceDir(req.Suite), req.Instance)
		if err != nil {
			return nil, err
		}
		return &routeInstance{
			circuit: li.Circuit,
			device:  li.Device,
			metric:  li.Family.Metric,
			optimal: li.Meta.Optimal(),
		}, nil
	case raw:
		if req.Device == "" || req.QASM == "" {
			return nil, fmt.Errorf("the raw form needs both device and qasm")
		}
		dev, err := arch.ByName(req.Device)
		if err != nil {
			return nil, err
		}
		c, err := circuit.ParseQASM(strings.NewReader(req.QASM))
		if err != nil {
			return nil, err
		}
		return &routeInstance{circuit: c, device: dev, metric: family.Swaps, optimal: req.Optimal}, nil
	default:
		return nil, fmt.Errorf("route request names no instance: send (suite, instance) or (device, qasm)")
	}
}

func (s *Server) routeMaxDeadline() time.Duration {
	if s.opts.RouteMaxDeadline > 0 {
		return s.opts.RouteMaxDeadline
	}
	return defRouteMaxDeadline
}

func (s *Server) routeHedgeDelay() time.Duration {
	if s.opts.RouteHedgeDelay > 0 {
		return s.opts.RouteHedgeDelay
	}
	return defRouteHedgeDelay
}

// routeResultLabel maps a race error to its metric label.
func routeResultLabel(err error) string {
	if errors.Is(err, portfolio.ErrNoAdmissibleTool) {
		return "no_admissible_tool"
	}
	return "no_result"
}

// notFoundOr400 distinguishes "that suite/instance does not exist" from
// a malformed request.
func notFoundOr400(w http.ResponseWriter, err error) {
	if errors.Is(err, suite.ErrNotFound) || errors.Is(err, os.ErrNotExist) {
		httpError(w, http.StatusNotFound, err)
		return
	}
	httpError(w, http.StatusBadRequest, err)
}
