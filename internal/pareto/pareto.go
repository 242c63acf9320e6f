// Package pareto traces the non-inferior (cost, performance) design set of
// a synthesis instance the way the paper does: "generated by changing the
// constraint value for the total cost of the system, and optimizing the
// overall performance". A sweep is one problem family (race.Family) plus
// its ε-constraint chain: the caller builds the family — its engines,
// their options, its portfolio of rungs and its budget governor — and
// every chain bound is one frontier point of it, which the family makes
// truly non-inferior with a second, lexicographic solve that minimizes
// the other axis at the achieved optimum. The sweep owns only what the
// chain adds: where it starts, the proofs it is served, and whether a
// point it cannot certify stops it. It walks the chain on the caller's
// goroutine, one bound at a time.
package pareto

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"sos/internal/budget"
	"sos/internal/model"
	"sos/internal/race"
	"sos/internal/schedule"
	"sos/internal/telemetry"
)

// Point is one non-inferior design with its search statistics and its
// anytime quality annotation.
type Point struct {
	Design *schedule.Design

	// Status records how the point's solve terminated: StatusOptimal for a
	// certified point, StatusFeasible for a budget-limited incumbent.
	Status budget.Status
	// Gap is the relative optimality gap of a StatusFeasible point
	// (+Inf when no lower bound is known, e.g. heuristic points).
	Gap float64
	// Rung names the family rung that produced the design in an anytime
	// or raced sweep. A strict sweep leaves it zero, like the certified
	// points a FrontierSource serves.
	Rung budget.Rung
}

// Cost returns the design's total cost.
func (p Point) Cost() float64 { return p.Design.Cost }

// Perf returns the design's makespan (the paper's "performance").
func (p Point) Perf() float64 { return p.Design.Makespan }

// FrontierSource serves previously proven frontier points into a running
// sweep. Implemented by the cross-request result cache (internal/cache);
// defined here so the sweep layer stays free of cache dependencies.
//
// The contract mirrors the ε-constraint chain: Serve(w) returns the
// longest stored prefix of the remaining chain starting at cost cap w —
// every returned point must be the certified optimum the sweep would
// have computed at its chain cap, already remapped into the
// requesting instance's frame and validated — plus done=true when the
// store additionally proves the chain terminates after those points
// (the next cap is ≤ 0, or the region at/below the last served cap is
// proven infeasible). Uncovered caps (the delta) are solved normally,
// with Warm offering adjacent stored designs as untrusted incumbents.
type FrontierSource interface {
	Serve(w float64) (pts []Point, done bool)
	// Warm returns up to max stored designs admissible at cap w
	// (cost ≤ w), for seeding delta solves. The designs are untrusted:
	// engines feasibility-vet them before adoption.
	Warm(w float64, max int) []*schedule.Design
}

// Options configures what a sweep owns beyond its family.
type Options struct {
	// StartCap, when positive, begins the sweep at this cost cap instead
	// of an uncapped solve.
	StartCap float64

	// Source, when non-nil, serves previously proven frontier points into
	// the sweep: every chain cap the source covers is answered without a
	// solve, and only the uncovered caps (the delta) are solved, seeded
	// with the source's adjacent designs as untrusted warm incumbents.
	Source FrontierSource

	// Anytime keeps the sweep going past a point it cannot certify: the
	// point's best incumbent is appended with its StatusFeasible
	// annotation and the chain continues. Without it the sweep is strict:
	// such a point, or a spent family governor, stops the sweep with a
	// typed budget.ErrExhausted error (wrapping ctx.Err() on
	// cancellation), returning the frontier so far.
	Anytime bool
}

// CostStep is how far below a found design's cost the next cap of a
// Sweep is set, matching the paper's unit-cost processors and links.
const CostStep = 1.0

// Sweep traces the non-inferior set of fam, a frontier family on the
// makespan axis (Frontier set, MinCost not), from best performance to
// lowest cost: each chain cap is one point of fam, walked or raced as fam
// says, under fam's governor. The returned points are ordered by
// decreasing cost and strictly increasing makespan; every point is
// validated before being returned.
//
// Anytime contract: a point whose solve exhausts its budget but still holds
// an incumbent is appended with a StatusFeasible annotation. A strict
// sweep then stops and reports a typed budget.ErrExhausted error (wrapping
// ctx.Err() on cancellation); with Options.Anytime it keeps sweeping. A
// point that yields nothing within budget always stops the sweep with the
// typed error, returning the partial frontier.
func Sweep(ctx context.Context, fam *race.Family, opts Options) ([]Point, error) {
	sw, err := newSweeper(fam, opts, false)
	if err != nil {
		return nil, err
	}
	// Drain the frontier source first: served points cost nothing, so they
	// land before (and independent of) the governor's budget.
	points, costCap, done := sw.drain(nil, opts.StartCap)
	if done {
		return points, nil
	}
	for {
		if !opts.Anytime && fam.Governor.Exhausted() {
			return points, budget.Exhausted(ctx, "pareto: sweep budget exhausted before cap %g", costCap)
		}
		pt, err := sw.solve(ctx, costCap)
		if err != nil {
			return points, err
		}
		if pt.Status == budget.StatusInfeasible {
			return points, nil
		}
		if pt.Design == nil {
			return points, budget.Exhausted(ctx, "pareto: no design within budget at cap %g (%v)", costCap, pt.Status)
		}
		points = sw.appendPoint(points, pt)
		if pt.Status != budget.StatusOptimal && !opts.Anytime {
			return points, budget.Exhausted(ctx, "pareto: cap %g not proven optimal (%v, gap %.3g)",
				costCap, pt.Status, pt.Gap)
		}
		if costCap = pt.Cost() - CostStep; costCap <= 0 {
			return points, nil
		}
		// Mid-chain holes: a partially covered store may resume coverage
		// below a delta-resolved region.
		if points, costCap, done = sw.drain(points, costCap); done {
			return points, nil
		}
	}
}

// SweepByDeadline traces the same non-inferior set from the opposite
// direction: starting from the loosest interesting deadline (the cheapest
// system's makespan), repeatedly minimize cost subject to a deadline just
// under the previous design's makespan. This is the natural mode for a
// designer with timing constraints; on a complete sweep it yields the
// same frontier as Sweep, which the tests exploit as a consistency check.
// PerfStep is how far below the previous makespan each new deadline sits
// (default 1e-3). It must exceed the engine's numerical noise — the MILP's
// accumulated simplex drift is of order 1e-6·T_M, so steps at or below
// that scale can re-admit the previous design; the sweep detects that as
// a lack of progress and reports an error rather than looping.
//
// fam must be a frontier family on the cost axis (Frontier and MinCost
// set). Of Options it reads only Anytime, with Sweep's contract.
func SweepByDeadline(ctx context.Context, fam *race.Family, opts Options, perfStep float64) ([]Point, error) {
	if perfStep <= 0 {
		perfStep = 1e-3
	}
	sw, err := newSweeper(fam, Options{Anytime: opts.Anytime}, true)
	if err != nil {
		return nil, err
	}
	// The loosest deadline worth considering: the serial time of the
	// slowest-capable mapping, which every feasible instance can meet.
	deadline := model.BigM(fam.G, fam.Pool, fam.Topo)
	lastPerf := math.Inf(1)
	var points []Point
	for {
		if !opts.Anytime && fam.Governor.Exhausted() {
			return points, budget.Exhausted(ctx, "pareto: sweep budget exhausted before deadline %g", deadline)
		}
		pt, err := sw.solve(ctx, deadline)
		if err != nil {
			return points, err
		}
		if pt.Status == budget.StatusInfeasible {
			return points, nil
		}
		if pt.Design == nil {
			return points, budget.Exhausted(ctx, "pareto: no design within budget at deadline %g (%v)", deadline, pt.Status)
		}
		if pt.Perf() >= lastPerf {
			if pt.Status != budget.StatusOptimal {
				// A degraded point that fails to improve on its
				// predecessor is starvation, not solver noise.
				return points, budget.Exhausted(ctx, "pareto: deadline sweep out of budget at makespan %g", pt.Perf())
			}
			return points, fmt.Errorf("pareto: deadline sweep stalled at makespan %g (step %g is below solver noise)",
				pt.Perf(), perfStep)
		}
		lastPerf = pt.Perf()
		points = sw.appendPoint(points, pt)
		if pt.Status != budget.StatusOptimal && !opts.Anytime {
			return points, budget.Exhausted(ctx, "pareto: deadline %g not proven optimal (%v, gap %.3g)",
				deadline, pt.Status, pt.Gap)
		}
		if deadline = pt.Perf() - perfStep; deadline <= 0 {
			return points, nil
		}
	}
}

// sweeper is one sweep's state: its options and the problem
// family that solves every chain bound — on the deadline axis (the
// family's MinCost) each bound is a deadline and a point's first solve
// minimizes cost.
type sweeper struct {
	opts Options
	fam  *race.Family
}

// newSweeper returns the state of a sweep of fam, which must be a
// frontier family on the sweep's axis.
func newSweeper(fam *race.Family, opts Options, byDeadline bool) (*sweeper, error) {
	if !fam.Frontier || fam.MinCost != byDeadline {
		return nil, errors.New("pareto: a sweep needs a frontier family on its own axis")
	}
	return &sweeper{opts: opts, fam: fam}, nil
}

// solve solves one chain bound — a cost cap, or a deadline on the
// deadline axis — as a frontier point of the sweep's family, seeded with
// the frontier source's stored designs next to the bound. Time left over
// from the governor's slice rolls over to every later point (the governor
// recomputes remaining budget from the wall clock).
func (sw *sweeper) solve(ctx context.Context, w float64) (Point, error) {
	tel := sw.fam.Telemetry
	slice := sw.fam.Governor.Slice()
	start := time.Now()
	var warm []*schedule.Design
	if sw.opts.Source != nil {
		warm = sw.opts.Source.Warm(w, race.MaxWarm)
	}
	s := sw.fam.Point(ctx, w, warm)
	spend := time.Since(start)
	if s.Err != nil {
		return Point{}, s.Err
	}
	pt := Point{Design: s.Design, Status: s.Status, Gap: s.Gap}
	if sw.opts.Anytime || sw.fam.Race {
		pt.Rung = s.Rung
	}
	tel.Emit(telemetry.EvPoint, spend.Seconds(), pt.Status.String())
	if slice > 0 && spend < slice {
		tel.Inc(telemetry.CtrRollovers)
		tel.Emit(telemetry.EvRollover, (slice - spend).Seconds(), "")
	}
	return pt, nil
}

// appendPoint appends pt to the frontier after dropping the trailing
// points it dominates. Points arrive in chain order — decreasing cost on
// the cost axis, decreasing makespan on the deadline axis — so pt
// dominates a trailing point when it is no worse on the other axis. That
// happens only behind a degraded (uncertified) incumbent: a certified
// optimum is never dominated by a design found later in the chain.
func (sw *sweeper) appendPoint(points []Point, pt Point) []Point {
	tel := sw.fam.Telemetry
	other := Point.Perf
	if sw.fam.MinCost {
		other = Point.Cost
	}
	for len(points) > 0 {
		last := points[len(points)-1]
		if other(pt) > other(last) {
			break
		}
		points = points[:len(points)-1]
		tel.Inc(telemetry.CtrDominatedDropped)
		tel.Emit(telemetry.EvDominated, other(last), last.Status.String())
	}
	tel.Inc(telemetry.CtrPoints)
	return append(points, pt)
}

// drain appends every stored frontier point covering the chain from
// costCap, and returns the grown frontier, the next uncovered cap, and
// done=true when the sweep is finished (the store proved the chain
// complete, or the next cap fell ≤ 0).
func (sw *sweeper) drain(points []Point, costCap float64) ([]Point, float64, bool) {
	if sw.opts.Source == nil {
		return points, costCap, false
	}
	served, done := sw.opts.Source.Serve(costCap)
	for _, pt := range served {
		points = sw.appendPoint(points, pt)
		costCap = pt.Cost() - CostStep
	}
	return points, costCap, done || (len(served) > 0 && costCap <= 0)
}
