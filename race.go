package sos

import (
	"context"
	"math"

	"sos/internal/budget"
	"sos/internal/heur"
	"sos/internal/race"
	"sos/internal/schedule"
)

// solveRace runs one defaulted spec by racing the engine portfolio
// concurrently on a shared incumbent bus: every rung starts at once with
// the full Spec.Budget as its wall-clock window, publishes each feasible
// design it finds, adopts the others' (vetted) designs to tighten its
// own pruning, and the first rung to produce a proof — Optimal or
// Infeasible — wins while the rest are canceled. The race settles by the
// portfolio's one rule (race.Portfolio).
func solveRace(ctx context.Context, sp Spec, warm []*schedule.Design) (*Result, error) {
	first := budget.RungCombinatorial
	if sp.Engine == EngineMILP {
		first = budget.RungMILP
	}
	minCost := sp.Objective == MinCost
	bound := sp.CostCap
	if minCost {
		bound = sp.Deadline
	}
	bus := race.NewBusFor(sp.Graph, sp.Pool, sp.Topology,
		&schedule.ValidateOptions{NoOverlapIO: sp.NoOverlapIO}, minCost, bound)
	p := race.Portfolio{MinCost: minCost, Telemetry: sp.Telemetry}
	for _, r := range race.Resolve(budget.DefaultLadder(first), minCost, true) {
		p.Rungs = append(p.Rungs, race.Rung{Rung: r, Run: func(ctx context.Context) (race.Answer, error) {
			res, err := solveRung(ctx, sp, warm, bus, r)
			if err != nil {
				return race.Answer{}, err
			}
			return race.Answer{Design: res.Design, Status: res.Status, Bound: res.Bound, Gap: res.Gap, Value: res}, nil
		}})
	}
	s := p.Race(ctx)
	if s.Err != nil {
		return nil, s.Err
	}
	res, _ := s.Value.(*Result)
	if res == nil {
		res = &Result{Engine: sp.Engine}
	}
	res.Design, res.Status, res.Bound, res.Gap = s.Design, s.Status, s.Bound, s.Gap
	res.Raced = true
	if s.Won {
		res.Rung = s.Rung.String()
	}
	return finishSolve(sp, res)
}

// solveRung runs rung r of a facade race with the bus attached. The
// heuristic rung publishes its design remapped onto the spec's pool, so
// it passes the bus's identity vet and seeds the exact engines' pruning;
// it never proves anything.
func solveRung(ctx context.Context, sp Spec, warm []*schedule.Design, bus *race.Bus, r budget.Rung) (*Result, error) {
	switch r {
	case budget.RungMILP:
		sp.Engine = EngineMILP
	case budget.RungHeuristic:
		res := &Result{Engine: EngineHeuristic, Status: StatusBudgetExhausted}
		d := heur.SynthesizeOnPool(sp.Graph, sp.Pool, sp.Topology, sp.CostCap)
		if d != nil && d.Validate(&schedule.ValidateOptions{NoOverlapIO: sp.NoOverlapIO}) == nil {
			bus.Publish(r, d, d.Makespan)
			res.Design, res.Status, res.Gap = d, StatusFeasible, math.Inf(1)
		}
		return res, nil
	default:
		sp.Engine = EngineCombinatorial
	}
	return engineSolve(ctx, sp, warm, bus)
}
