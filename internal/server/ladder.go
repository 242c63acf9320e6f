package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"sos"
	"sos/internal/budget"
	"sos/internal/race"
	"sos/internal/telemetry"
)

// rungFor maps a requested engine onto its ladder entry rung.
func rungFor(e sos.Engine) budget.Rung {
	switch e {
	case sos.EngineMILP:
		return budget.RungMILP
	case sos.EngineHeuristic:
		return budget.RungHeuristic
	default:
		return budget.RungCombinatorial
	}
}

// engineFor maps a ladder rung back onto the engine that runs it.
func engineFor(r budget.Rung) sos.Engine {
	switch r {
	case budget.RungMILP:
		return sos.EngineMILP
	case budget.RungHeuristic:
		return sos.EngineHeuristic
	default:
		return sos.EngineCombinatorial
	}
}

// runSolve walks the degradation ladder for one request: the entry rung
// is the requested engine stepped down by current queue pressure; each
// rung runs under a governor allowance; the portfolio's settlement rule
// picks the answer (the first proof, else the best incumbent). The walk
// is honest: the response carries the rung that produced the result and
// whether the request was degraded at all.
func (s *Server) runSolve(j *job, gov *budget.Governor, workerID int) *Response {
	if j.spec.Race && j.spec.Engine != sos.EngineHeuristic {
		if resp := s.runRace(j, gov); resp != nil {
			return resp
		}
		// The race could not start (budget spent at admission); fall
		// through to the ladder, whose terminal-heuristic contract still
		// hands the client an incumbent when degradation is allowed.
		j.spec.Race = false
	}
	requested := rungFor(j.spec.Engine)
	minCost := j.spec.Objective == sos.MinCost
	ladder := race.Resolve(budget.DefaultLadder(requested), minCost, false)
	if j.anytime {
		ladder = ladder[min(s.pressure(), len(ladder)-1):]
	} else {
		ladder = ladder[:1] // degradation forbidden: one rung only
	}

	ctx := j.ctx
	if !j.deadline.IsZero() {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, j.deadline)
		defer cancel()
	}

	found := false // some rung has produced a design
	p := race.Portfolio{MinCost: minCost}
	for i, r := range ladder {
		p.Rungs = append(p.Rungs, race.Rung{Rung: r, Run: func(ctx context.Context) (race.Answer, error) {
			if i > 0 {
				s.tel.Emit(telemetry.EvDegrade, workerID, 0, r.String())
			}
			allowance, aerr := gov.Allowance(0)
			if aerr != nil {
				// Budget spent. The terminal heuristic is effectively free and
				// always terminates: when degradation is allowed and no design
				// exists yet, run it once so the client gets an incumbent
				// instead of nothing. Every other rung is skipped — this is the
				// no-floor-slice-spin contract (budget.Allowance).
				if !(j.anytime && !found && r == budget.RungHeuristic) {
					return race.Answer{Status: sos.StatusBudgetExhausted}, nil
				}
				allowance = 0 // the heuristic ignores its budget
			}
			sp := j.spec
			sp.Engine = engineFor(r)
			sp.Budget = allowance
			res, err := s.synthesize(ctx, sp)
			if err != nil {
				// A crashed or failed rung is degraded around: the next
				// (cheaper, independent) rung still gets its chance.
				return race.Answer{}, err
			}
			found = found || res.Design != nil
			return race.Answer{Design: res.Design, Status: res.Status, Bound: res.Bound, Gap: res.Gap, Value: res}, nil
		}})
	}
	st := p.Walk(ctx)

	res, _ := st.Value.(*sos.Result)
	if res != nil {
		res.Status, res.Bound, res.Gap = st.Status, st.Bound, st.Gap
	}
	degraded := st.Won && st.Rung != requested
	switch {
	case j.ctx.Err() != nil:
		// Client disconnect or shutdown cancel: keep the best anytime
		// incumbent on the record rather than discarding the work.
		resp := s.solveResponse(j, res, st.Rung, degraded)
		resp.Status = OutcomeCanceled
		resp.HTTP = StatusClientClosedRequest
		resp.Error = "request canceled: " + j.ctx.Err().Error()
		return resp
	case st.Won:
		return s.solveResponse(j, res, st.Rung, degraded)
	case st.Err != nil:
		// Every rung that ran failed outright.
		return &Response{Status: OutcomeError, HTTP: http.StatusInternalServerError,
			Error: st.Err.Error()}
	default:
		// No incumbent, no proof, budget gone: the honest answer.
		return &Response{Status: sos.StatusBudgetExhausted.String(), HTTP: http.StatusOK,
			Rung: requested.String(), Degraded: ladder[0] != requested}
	}
}

// raceTenants is the number of engines a racing solve runs concurrently
// — the tenant count its admission charges. Non-racing jobs (and sweeps
// and batches, whose inner racing is per-point and sequential from the
// governor's view) count as one tenant.
func raceTenants(j *job) int {
	if j.kind != kindSolve || !j.spec.Race || j.spec.Engine == sos.EngineHeuristic {
		return 1
	}
	return len(race.Resolve(budget.DefaultLadder(rungFor(j.spec.Engine)), j.spec.Objective == sos.MinCost, true))
}

// runRace serves one racing solve: the whole remaining allowance becomes
// the shared wall-clock window every portfolio engine runs in at once,
// and the facade's race decides the winner. A nil return means the race
// could not start (budget already spent) and the caller should fall back
// to the sequential ladder.
func (s *Server) runRace(j *job, gov *budget.Governor) *Response {
	allowance, aerr := gov.Allowance(0)
	if aerr != nil {
		return nil
	}
	ctx := j.ctx
	if !j.deadline.IsZero() {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, j.deadline)
		defer cancel()
	}
	sp := j.spec
	sp.Budget = allowance
	res, err := s.synthesize(ctx, sp)
	if err != nil {
		if j.ctx.Err() != nil {
			return &Response{Status: OutcomeCanceled, HTTP: StatusClientClosedRequest,
				Raced: true, Error: "request canceled: " + j.ctx.Err().Error()}
		}
		return &Response{Status: OutcomeError, HTTP: http.StatusInternalServerError,
			Raced: true, Error: err.Error()}
	}
	resp := s.solveResponse(j, res, rungFor(res.Engine), false)
	resp.Raced = true
	if res.Rung != "" {
		resp.Rung = res.Rung
	}
	switch res.Status {
	case sos.StatusOptimal, sos.StatusInfeasible:
		// Certified: a different winning rung is not degradation.
	case sos.StatusCanceled:
		resp.Status = OutcomeCanceled
		resp.HTTP = StatusClientClosedRequest
		resp.Error = "request canceled"
		if cerr := ctx.Err(); cerr != nil {
			resp.Error = "request canceled: " + cerr.Error()
		}
	default:
		// An incumbent (or nothing) is weaker than the proof the request
		// implicitly asked for; report it the way the ladder does.
		resp.Degraded = true
	}
	return resp
}

// solveResponse builds the common served-response shape.
func (s *Server) solveResponse(j *job, res *sos.Result, rung budget.Rung, degraded bool) *Response {
	resp := &Response{HTTP: http.StatusOK, Degraded: degraded}
	if res != nil {
		resp.Status = res.Status.String()
		resp.Result = res
		resp.Rung = rung.String()
	} else {
		resp.Status = sos.StatusBudgetExhausted.String()
	}
	return resp
}

// runSweep runs a frontier sweep under the request governor: the whole
// remaining allowance becomes the sweep budget, the engine is stepped
// down under pressure, and per-point degradation inside the sweep is
// delegated to the pareto ladder (Spec.Anytime).
func (s *Server) runSweep(j *job, gov *budget.Governor) *Response {
	sp := j.spec
	requested := rungFor(sp.Engine)
	rung := requested
	if j.anytime {
		sp.Anytime = true
		if s.pressure() > 0 && rung == budget.RungMILP {
			// A sweep needs an exact engine to certify points; pressure
			// steps MILP down to the (much faster) combinatorial engine.
			rung = budget.RungCombinatorial
			sp.Engine = sos.EngineCombinatorial
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

	ctx := j.ctx
	if !j.deadline.IsZero() {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, j.deadline)
		defer cancel()
	}

	pts, err := s.frontier(ctx, sp)
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

// frontier wraps the sweep with the same request-boundary panic isolation
// as synthesize.
func (s *Server) frontier(ctx context.Context, sp sos.Spec) (pts []sos.FrontierPoint, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.tel.Inc(telemetry.CtrReqPanics)
			err = fmt.Errorf("solver panic: %v", r)
		}
	}()
	return sos.Frontier(ctx, sp)
}
