package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"sos"
	"sos/internal/telemetry"
)

// Handler returns the service's HTTP mux:
//
//	POST /v1/solve     one synthesis; body is a SolveRequest
//	POST /v1/sweep     one Pareto frontier sweep; same body shape
//	POST /v1/batch     related syntheses answered together; body is a
//	                   BatchRequest (deduplicated and template-shared
//	                   through the result cache, see sos.SolveBatch)
//	GET  /v1/jobs/{id} a job record (done jobs keep their full response)
//	GET  /v1/stats     telemetry counters + queue/governor/cache gauges
//	GET  /healthz      liveness: always 200 while the process runs
//	GET  /readyz       readiness: 503 while draining or the queue is full
//
// Every response body on every path is well-formed JSON, including
// refusals and failures — that invariant is what the chaos suite pins.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/solve", func(w http.ResponseWriter, r *http.Request) {
		s.handleSubmit(w, r, kindSolve)
	})
	mux.HandleFunc("POST /v1/sweep", func(w http.ResponseWriter, r *http.Request) {
		s.handleSubmit(w, r, kindSweep)
	})
	mux.HandleFunc("POST /v1/batch", s.handleBatch)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	// Health probes are lock-free and allocation-light: they must answer
	// instantly even while every worker is wedged in a pathological solve.
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		occ, depth := s.Queue()
		if s.Draining() {
			writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": OutcomeDraining})
			return
		}
		if occ >= depth {
			writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "saturated"})
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	})
	return mux
}

// handleSubmit is the shared solve/sweep entry: decode, validate, admit,
// then wait for the job against the client connection. A disconnect
// while waiting cancels the job's context; the worker still records the
// outcome (with any anytime incumbent) on the job record.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request, kind jobKind) {
	var req SolveRequest
	if !s.decode(w, r, &req) {
		return
	}

	spec, budget, deadline, anytime, err := s.toSpec(&req)
	if err != nil {
		var bad errBadRequest
		if errors.As(err, &bad) {
			s.refuse(w, http.StatusBadRequest, OutcomeError, bad.Error(), 0)
		} else {
			s.refuse(w, http.StatusInternalServerError, OutcomeError, err.Error(), 0)
		}
		return
	}

	j := s.newJob(kind, spec, budget, deadline, anytime)
	s.dispatch(w, r, j)
}

// handleBatch is the POST /v1/batch entry: decode and validate every
// member up front (any invalid member fails the whole batch with 400 and
// its index), then admit the batch as one job.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if !s.decode(w, r, &req) {
		return
	}
	if len(req.Requests) == 0 {
		s.refuse(w, http.StatusBadRequest, OutcomeError, "empty batch", 0)
		return
	}
	if len(req.Requests) > s.cfg.MaxBatch {
		s.refuse(w, http.StatusBadRequest, OutcomeError,
			fmt.Sprintf("batch of %d exceeds limit %d", len(req.Requests), s.cfg.MaxBatch), 0)
		return
	}
	budget, deadline, err := s.admission(req.BudgetMS, req.DeadlineMS)
	if err != nil {
		s.refuse(w, http.StatusBadRequest, OutcomeError, err.Error(), 0)
		return
	}

	specs := make([]sos.Spec, len(req.Requests))
	for i := range req.Requests {
		spec, _, _, _, err := s.toSpec(&req.Requests[i])
		if err != nil {
			var bad errBadRequest
			if errors.As(err, &bad) {
				s.refuse(w, http.StatusBadRequest, OutcomeError,
					fmt.Sprintf("request %d: %s", i, bad.Error()), 0)
			} else {
				s.refuse(w, http.StatusInternalServerError, OutcomeError,
					fmt.Sprintf("request %d: %s", i, err.Error()), 0)
			}
			return
		}
		specs[i] = spec
	}

	j := s.newJob(kindBatch, sos.Spec{}, budget, deadline, true)
	j.specs = specs
	s.dispatch(w, r, j)
}

// decode reads a request body of at most MaxBodyBytes into v, refusing
// unknown fields. On failure it writes the refusal — 413 for an oversized
// body, 400 otherwise — and reports false.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	var tooBig *http.MaxBytesError
	switch {
	case err == nil:
		return true
	case errors.As(err, &tooBig):
		s.refuse(w, http.StatusRequestEntityTooLarge, OutcomeShed,
			fmt.Sprintf("body exceeds %d bytes", tooBig.Limit), 0)
	default:
		s.refuse(w, http.StatusBadRequest, OutcomeError, "invalid request body: "+err.Error(), 0)
	}
	return false
}

// dispatch admits a job and waits for its response against the client
// connection — the shared tail of every submit handler.
func (s *Server) dispatch(w http.ResponseWriter, r *http.Request, j *job) {
	s.jobs.add(j)
	if err := s.admit(j); err != nil {
		s.tel.Inc(telemetry.CtrReqShed)
		outcome, code := OutcomeShed, http.StatusTooManyRequests
		if errors.Is(err, errDraining) {
			outcome, code = OutcomeDraining, http.StatusServiceUnavailable
		}
		j.complete(&Response{ID: j.id, Kind: j.kind.String(), Status: outcome,
			HTTP: code, Error: err.Error()})
		s.refuse(w, code, outcome, err.Error(), s.cfg.RetryAfter)
		return
	}
	s.tel.Inc(telemetry.CtrReqAdmitted)

	select {
	case <-j.done:
		resp := j.resp
		if resp.HTTP == StatusClientClosedRequest {
			// The worker observed the cancel, but this client is still here
			// (e.g. shutdown-grace cancel): deliver the partial result.
			writeJSON(w, http.StatusOK, resp)
			return
		}
		if resp.HTTP == http.StatusTooManyRequests && resp.RetryAfterSeconds > 0 {
			w.Header().Set("Retry-After", strconv.Itoa(resp.RetryAfterSeconds))
		}
		writeJSON(w, resp.HTTP, resp)
	case <-r.Context().Done():
		// Client gone: propagate the cancel into the solve and wait for the
		// worker to publish the (canceled/anytime) outcome on the record, so
		// the job id remains queryable. This wait is bounded: cancellation
		// is threaded through every engine.
		j.cancel()
		<-j.done
	}
}

// handleJob serves a job record: state, and the full response once done.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j := s.jobs.get(id)
	if j == nil {
		writeJSON(w, http.StatusNotFound, map[string]string{
			"status": "unknown", "error": "no such job (evicted or never admitted)", "id": id})
		return
	}
	st := j.currentState()
	if st != stateDone {
		writeJSON(w, http.StatusOK, map[string]string{
			"id": j.id, "kind": j.kind.String(), "status": st})
		return
	}
	writeJSON(w, http.StatusOK, j.resp)
}

// handleStats reports counters and live gauges.
func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	occ, depth := s.Queue()
	stats := map[string]any{
		"queue_occupied": occ,
		"queue_depth":    depth,
		"draining":       s.Draining(),
		"active":         s.gov.Active(),
		"peak_active":    s.gov.Peak(),
		"pressure":       s.pressure(),
		"counters": map[string]int64{
			"req_admitted":    s.tel.Get(telemetry.CtrReqAdmitted),
			"req_served":      s.tel.Get(telemetry.CtrReqServed),
			"req_shed":        s.tel.Get(telemetry.CtrReqShed),
			"req_degraded":    s.tel.Get(telemetry.CtrReqDegraded),
			"req_canceled":    s.tel.Get(telemetry.CtrReqCanceled),
			"req_panics":      s.tel.Get(telemetry.CtrReqPanics),
			"cache_hits":      s.tel.Get(telemetry.CtrCacheHits),
			"cache_near_hits": s.tel.Get(telemetry.CtrCacheNearHits),
			"cache_misses":    s.tel.Get(telemetry.CtrCacheMisses),
			"cache_evictions": s.tel.Get(telemetry.CtrCacheEvictions),
			"cache_coalesced": s.tel.Get(telemetry.CtrCacheCoalesced),
			"race_wins_milp":  s.tel.Get(telemetry.CtrRaceWinsMILP),
			"race_wins_comb":  s.tel.Get(telemetry.CtrRaceWinsComb),
			"race_wins_heur":  s.tel.Get(telemetry.CtrRaceWinsHeur),
			"race_canceled":   s.tel.Get(telemetry.CtrRaceCanceled),

			"frontier_hits":         s.tel.Get(telemetry.CtrFrontierHits),
			"frontier_partial_hits": s.tel.Get(telemetry.CtrFrontierPartialHits),
			"frontier_misses":       s.tel.Get(telemetry.CtrFrontierMisses),
			"frontier_delta_points": s.tel.Get(telemetry.CtrFrontierDeltaPoints),
			"frontier_stores":       s.tel.Get(telemetry.CtrFrontierStores),
		},
	}
	if s.cfg.Cache != nil {
		stats["cache_len"] = s.cfg.Cache.Len()
	}
	writeJSON(w, http.StatusOK, stats)
}

// refuse writes a well-formed JSON refusal with an optional Retry-After.
func (s *Server) refuse(w http.ResponseWriter, code int, status, msg string, retryAfter time.Duration) {
	resp := &Response{Status: status, HTTP: code, Error: msg}
	if retryAfter > 0 {
		resp.RetryAfterSeconds = retryAfterSeconds(retryAfter)
		w.Header().Set("Retry-After", strconv.Itoa(resp.RetryAfterSeconds))
	}
	writeJSON(w, code, resp)
}

// writeJSON writes v as a JSON body. Encoding failures cannot be
// reported to the client (headers are gone); they would indicate a bug
// in our own marshalers, which json.go keeps JSON-safe.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}
