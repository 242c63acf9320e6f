package race

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"sos/internal/budget"
	"sos/internal/model"
	"sos/internal/schedule"
	"sos/internal/telemetry"
)

// Answer is the one result every portfolio rung returns, whatever its
// engine: the design it found (nil when none), how its solve terminated,
// the bound and gap it certified on the portfolio's objective, and the
// search nodes it explored (with the MILP's model statistics when the
// rung built one).
type Answer struct {
	Design *schedule.Design
	Status budget.Status
	Bound  float64
	Gap    float64
	Nodes  int
	Model  *model.Stats
}

// Rung is one engine of a portfolio.
type Rung struct {
	Rung budget.Engine
	Run  func(ctx context.Context) (Answer, error)
}

// Portfolio is the rungs that solve one problem and the objective they
// minimize. It runs either as a Walk (rungs in order, on the caller's
// goroutine) or as a Race (all rungs at once); both settle the same way:
//
//   - A proof wins: Optimal with a design, or Infeasible from an exact
//     rung. The heuristic never proves infeasibility.
//   - Otherwise the best incumbent by objective wins, ties within 1e-9
//     going to the earlier rung, reported StatusFeasible with its gap
//     measured against the largest bound any rung certified.
//   - An error comes back only when every rung that ran returned one.
//
// Either mode turns a rung's panic into that rung's error, so settlement
// degrades around a crashing rung as around a failing one.
type Portfolio struct {
	Rungs []Rung
	// MinCost selects the objective: design cost when set, makespan
	// otherwise.
	MinCost bool
	// Telemetry, when non-nil, receives race attribution — the winning
	// rung's counter, canceled losers, and one EvRace event per race —
	// and one CtrReqPanics tick per rung whose error wraps
	// budget.ErrPanic.
	Telemetry *telemetry.Collector
}

// Settled is a finished portfolio run.
type Settled struct {
	// Answer is the proof, else the best incumbent; with neither, it has
	// no design, StatusBudgetExhausted (StatusCanceled once ctx is done)
	// and the largest bound any rung certified, and a run of one rung
	// keeps that rung's Nodes and Model.
	Answer
	// Rung produced Answer; meaningful only when Won.
	Rung budget.Engine
	// Won reports that some rung delivered a proof or an incumbent.
	Won bool
	// Err is non-nil only when every rung that ran returned an error.
	Err error
}

// tieEps is how much better an incumbent must be to displace one from an
// earlier rung.
const tieEps = 1e-9

// Rungs returns the rungs a solve that requests engine e runs, and
// whether they race. It is the one rung rule: the facade's families and
// sosd's admission and pressure step-down all call it.
//
//   - EngineAuto runs the combinatorial engine.
//   - The heuristic never races: a request for it asks for the cheap
//     inexact answer, and its ladder is the heuristic alone.
//   - A solve runs its one engine unless it races or walks (anytime),
//     and then the default ladder from that engine.
//   - Resolve then applies the portfolio's two rung rules.
func Rungs(e budget.Engine, minCost, raced, anytime bool) (budget.Ladder, bool) {
	e = e.Resolved()
	racing := raced && e != budget.EngineHeuristic
	ladder := budget.Ladder{e}
	if raced || anytime {
		ladder = budget.DefaultLadder(e)
	}
	return Resolve(ladder, minCost, racing), racing
}

// Resolve returns the rungs a portfolio runs for a ladder whose first
// rung is the requested engine. It holds the portfolio's two rung rules,
// so every caller applies them alike:
//
//   - the heuristic has no deadline mode, so on the MinCost axis it is
//     never a fallback: it runs only as the requested entry rung;
//   - a race of fewer than two rungs adds the MILP, because concurrency
//     makes it a free second prover (canceled the moment the other rung
//     proves).
func Resolve(ladder budget.Ladder, minCost, racing bool) budget.Ladder {
	out := make(budget.Ladder, 0, len(ladder)+1)
	haveMILP := false
	for i, r := range ladder {
		if minCost && r == budget.EngineHeuristic && i > 0 {
			continue
		}
		haveMILP = haveMILP || r == budget.EngineMILP
		out = append(out, r)
	}
	if racing && len(out) < 2 && !haveMILP {
		out = append(out, budget.EngineMILP)
	}
	return out
}

// outcome is one rung's terminal state as settlement sees it.
type outcome struct {
	rung budget.Engine
	ans  Answer
	err  error
}

// proves reports whether rung r's answer is a certificate.
func proves(r budget.Engine, a Answer) bool {
	switch a.Status {
	case budget.StatusOptimal:
		return a.Design != nil
	case budget.StatusInfeasible:
		return r != budget.EngineHeuristic
	}
	return false
}

// Walk runs the rungs in order on the caller's goroutine and stops at the
// first proof; a done ctx stops the walk before the next rung.
func (p Portfolio) Walk(ctx context.Context) Settled {
	outs := make([]outcome, 0, len(p.Rungs))
	for _, r := range p.Rungs {
		if ctx.Err() != nil {
			break
		}
		o := p.run(ctx, r)
		outs = append(outs, o)
		if o.err == nil && proves(r.Rung, o.ans) {
			return p.settle(ctx, outs, len(outs)-1)
		}
	}
	return p.settle(ctx, outs, -1)
}

// Race runs every rung at once, one goroutine each, under a context the
// first proof cancels. It joins every rung before it settles, so no rung
// outlives the race and the caller may reuse whatever the rungs shared.
func (p Portfolio) Race(ctx context.Context) Settled {
	rctx, cancel := context.WithCancel(ctx)
	defer cancel()
	outs := make([]outcome, len(p.Rungs))
	winner, finished, canceled := -1, 0, 0
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	for i, r := range p.Rungs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			o := p.run(rctx, r)
			mu.Lock()
			defer mu.Unlock()
			outs[i] = o
			finished++
			if winner < 0 && o.err == nil && proves(r.Rung, o.ans) {
				// Every rung still running is now a canceled loser.
				winner, canceled = i, len(p.Rungs)-finished
				cancel()
			}
		}()
	}
	wg.Wait()
	s := p.settle(ctx, outs, winner)
	p.attribute(s, canceled)
	return s
}

// run runs one rung, turning its panic into its error; every rung error
// that wraps budget.ErrPanic — recovered here or by the engine's own
// workers — ticks CtrReqPanics once.
func (p Portfolio) run(ctx context.Context, r Rung) (o outcome) {
	o.rung = r.Rung
	defer func() {
		if v := recover(); v != nil {
			o.ans, o.err = Answer{}, fmt.Errorf("race: %s rung %w: %v", r.Rung, budget.ErrPanic, v)
		}
		if errors.Is(o.err, budget.ErrPanic) {
			p.Telemetry.Inc(telemetry.CtrReqPanics)
		}
	}()
	o.ans, o.err = r.Run(ctx)
	return o
}

// settle applies the settlement rule to the rungs that ran, in rung
// order; winner indexes the proof that ended the run, or is -1.
func (p Portfolio) settle(ctx context.Context, outs []outcome, winner int) Settled {
	if winner >= 0 {
		return Settled{Answer: outs[winner].ans, Rung: outs[winner].rung, Won: true}
	}
	best, errs := -1, 0
	bound := 0.0
	var firstErr error
	for i, o := range outs {
		if o.err != nil {
			if errs++; firstErr == nil {
				firstErr = o.err
			}
			continue
		}
		bound = math.Max(bound, o.ans.Bound)
		if o.ans.Design != nil && (best < 0 || p.obj(o.ans.Design) < p.obj(outs[best].ans.Design)-tieEps) {
			best = i
		}
	}
	if best < 0 {
		if errs > 0 && errs == len(outs) {
			return Settled{Err: firstErr}
		}
		a := Answer{Status: budget.StatusBudgetExhausted, Bound: bound, Gap: math.Inf(1)}
		if ctx.Err() != nil {
			a.Status = budget.StatusCanceled
		}
		if len(outs) == 1 {
			// A lone rung's search is the whole run's.
			a.Nodes, a.Model = outs[0].ans.Nodes, outs[0].ans.Model
		}
		return Settled{Answer: a}
	}
	a := outs[best].ans
	a.Status = budget.StatusFeasible
	a.Bound = math.Max(a.Bound, bound)
	a.Gap = math.Inf(1)
	if a.Bound > 0 {
		obj := p.obj(a.Design)
		a.Gap = math.Abs(obj-a.Bound) / math.Max(1, math.Abs(obj))
	}
	return Settled{Answer: a, Rung: outs[best].rung, Won: true}
}

func (p Portfolio) obj(d *schedule.Design) float64 {
	if p.MinCost {
		return d.Cost
	}
	return d.Makespan
}

// attribute folds one finished race into telemetry: the winning rung's
// counter, the losers its proof canceled, and one EvRace event.
func (p Portfolio) attribute(s Settled, canceled int) {
	tel := p.Telemetry
	label := "none"
	if s.Won {
		label = s.Rung.String()
		switch s.Rung {
		case budget.EngineMILP:
			tel.Inc(telemetry.CtrRaceWinsMILP)
		case budget.EngineCombinatorial:
			tel.Inc(telemetry.CtrRaceWinsComb)
		case budget.EngineHeuristic:
			tel.Inc(telemetry.CtrRaceWinsHeur)
		}
	}
	tel.Add(telemetry.CtrRaceCanceled, int64(canceled))
	tel.Emit(telemetry.EvRace, float64(canceled), label)
}
