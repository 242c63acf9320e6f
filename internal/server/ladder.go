package server

import (
	"context"
	"errors"
	"net/http"
	"time"

	"sos"
	"sos/internal/budget"
	"sos/internal/race"
)

// runSolve serves one solve request with one facade call under one
// governor allowance. An anytime request walks the ladder from its
// requested engine, stepped down by current queue pressure; a raced
// request races the ladder; a strict request runs its engine alone. The
// response is honest: it names the rung that produced the result and
// whether the request was degraded.
func (s *Server) runSolve(ctx context.Context, j *job, gov *budget.Governor) *Response {
	sp := j.spec
	requested := sp.Engine.Resolved()
	ladder, raced := race.Rungs(sp.Engine, sp.Objective == sos.MinCost, sp.Race, j.anytime)
	allowance, aerr := gov.Allowance(0)
	switch {
	case aerr == nil:
		if j.anytime && !raced {
			sp.Engine = ladder[min(s.pressure(), len(ladder)-1)]
		}
	case j.anytime && ladder[len(ladder)-1] == sos.EngineHeuristic:
		// Budget spent. The terminal heuristic is effectively free and
		// always terminates, so an anytime request still gets an
		// incumbent instead of nothing. Every other rung is skipped —
		// the no-floor-slice-spin contract (budget.Allowance).
		sp.Engine, raced = sos.EngineHeuristic, false
	default:
		return &Response{Status: sos.StatusBudgetExhausted.String(), HTTP: http.StatusOK,
			Rung: requested.String()}
	}
	sp.Anytime, sp.Budget = j.anytime, allowance
	res, err := isolated(s.tel, func() (*sos.Result, error) { return sos.Synthesize(ctx, sp) })

	resp := &Response{HTTP: http.StatusOK, Raced: raced}
	if res != nil {
		rung := res.Engine.Resolved()
		resp.Status, resp.Result, resp.Rung = res.Status.String(), res, rung.String()
		// A raced request asks any rung for a proof; any other request
		// asks for its own rung.
		resp.Degraded = rung != requested
		if raced {
			resp.Degraded = !res.Status.Proven()
		}
	}
	switch {
	case j.ctx.Err() != nil:
		// Client disconnect or shutdown cancel: keep the best anytime
		// incumbent on the record rather than discarding the work.
		resp.Status, resp.HTTP = OutcomeCanceled, StatusClientClosedRequest
		resp.Error = "request canceled: " + j.ctx.Err().Error()
	case err != nil:
		resp.Status, resp.HTTP, resp.Error = OutcomeError, http.StatusInternalServerError, err.Error()
	case res.Status == sos.StatusCanceled:
		// The response deadline passed before any design: the honest
		// answer is the one a spent budget gets.
		resp.Status = sos.StatusBudgetExhausted.String()
	}
	return resp
}

// raceTenants is the number of engines a job runs concurrently — the
// tenant count its admission charges. A raced solve runs every rung of its
// ladder at once. A raced sweep solves its points one after another, and
// each point races every rung of the ladder the sweep's engine and axis
// give it (sos.Frontier runs the combinatorial engine for a heuristic
// request, under MinMakespan). A batch solves its members one after
// another, each raced when its own spec would be, so it is charged its
// most expensive member. Unraced jobs count as one tenant.
func raceTenants(j *job) int {
	switch j.kind {
	case kindSweep:
		sp := j.spec
		if sp.Engine == sos.EngineHeuristic {
			sp.Engine = sos.EngineCombinatorial
		}
		sp.Objective = sos.MinMakespan
		return specTenants(sp)
	case kindBatch:
		n := 1
		for _, sp := range j.specs {
			n = max(n, specTenants(sp))
		}
		return n
	}
	return specTenants(j.spec)
}

// specTenants is the number of rungs a solve of sp runs at once: its
// raced ladder when sp races, else one.
func specTenants(sp sos.Spec) int {
	ladder, raced := race.Rungs(sp.Engine, sp.Objective == sos.MinCost, sp.Race, sp.Anytime)
	if !raced {
		return 1
	}
	return len(ladder)
}

// runSweep runs a frontier sweep under the request governor: the whole
// remaining allowance becomes the sweep budget, the engine is stepped
// down under pressure, and per-point degradation inside the sweep is
// delegated to the facade's sweep (Spec.Anytime).
func (s *Server) runSweep(ctx context.Context, j *job, gov *budget.Governor) *Response {
	sp := j.spec
	requested := sp.Engine.Resolved()
	if requested == sos.EngineHeuristic {
		// A sweep certifies its points: sos.Frontier runs the
		// combinatorial engine for a heuristic request.
		requested = sos.EngineCombinatorial
	}
	rung := requested
	if j.anytime {
		sp.Anytime = true
		if s.pressure() > 0 && rung == sos.EngineMILP {
			// A sweep needs an exact engine to certify points; pressure
			// steps MILP down to the (much faster) combinatorial engine.
			rung = sos.EngineCombinatorial
			sp.Engine = rung
		}
	}
	if _, err := gov.Allowance(0); err != nil {
		return &Response{Status: sos.StatusBudgetExhausted.String(), HTTP: http.StatusOK,
			Rung: rung.String(), Degraded: rung != requested,
			Error: "request budget exhausted before the sweep started"}
	}
	if rem := gov.Remaining(); rem < time.Duration(1)<<62 {
		sp.SweepBudget = rem
	}

	pts, err := isolated(s.tel, func() ([]sos.FrontierPoint, error) { return sos.Frontier(ctx, sp) })
	resp := &Response{HTTP: http.StatusOK, Frontier: pts,
		Rung: rung.String(), Degraded: rung != requested}
	for _, p := range pts {
		if p.Status != sos.StatusOptimal {
			resp.Degraded = true
		}
	}
	switch {
	case err == nil && !resp.Degraded:
		resp.Status = sos.StatusOptimal.String()
	case err == nil:
		resp.Status = sos.StatusFeasible.String()
	case j.ctx.Err() != nil:
		resp.Status = OutcomeCanceled
		resp.HTTP = StatusClientClosedRequest
		resp.Error = "request canceled: " + j.ctx.Err().Error()
	case errors.Is(err, sos.ErrBudgetExhausted):
		// Partial frontier: certified prefix plus the typed exhaustion.
		resp.Degraded = true
		if len(pts) > 0 {
			resp.Status = sos.StatusFeasible.String()
		} else {
			resp.Status = sos.StatusBudgetExhausted.String()
		}
		resp.Error = err.Error()
	default:
		resp.Status = OutcomeError
		resp.HTTP = http.StatusInternalServerError
		resp.Error = err.Error()
	}
	return resp
}
