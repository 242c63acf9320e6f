// Package pareto traces the non-inferior (cost, performance) design set of
// a synthesis instance the way the paper does: "generated by changing the
// constraint value for the total cost of the system, and optimizing the
// overall performance". Each frontier point is made truly non-inferior by a
// second, lexicographic solve that minimizes cost at the achieved
// performance.
package pareto

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"time"

	"sos/internal/arch"
	"sos/internal/budget"
	"sos/internal/exact"
	"sos/internal/milp"
	"sos/internal/model"
	"sos/internal/race"
	"sos/internal/schedule"
	"sos/internal/taskgraph"
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
	// Rung is the degradation-ladder rung that produced the design
	// (RungMILP for an ungoverned MILP sweep, and so on).
	Rung budget.Rung
}

// Cost returns the design's total cost.
func (p Point) Cost() float64 { return p.Design.Cost }

// Perf returns the design's makespan (the paper's "performance").
func (p Point) Perf() float64 { return p.Design.Makespan }

// pointJSON is the wire form of a Point: a scalar summary plus the
// name-referenced design encoding. Gap is a pointer so the non-finite values
// a heuristic point carries (+Inf = "no lower bound known") serialize as
// null instead of failing to encode — encoding/json rejects non-finite
// floats outright.
type pointJSON struct {
	Cost   *float64        `json:"cost"`
	Perf   *float64        `json:"perf"`
	Status string          `json:"status"`
	Rung   string          `json:"rung"`
	Gap    *float64        `json:"gap"`
	Design json.RawMessage `json:"design,omitempty"`
}

// finitePtr returns &v when v is finite, nil otherwise (JSON null).
func finitePtr(v float64) *float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return nil
	}
	return &v
}

// MarshalJSON emits a JSON-safe view of the point: non-finite Gap values
// become null, and a missing design omits the design/cost/perf fields.
func (p Point) MarshalJSON() ([]byte, error) {
	out := pointJSON{
		Status: p.Status.String(),
		Rung:   p.Rung.String(),
		Gap:    finitePtr(p.Gap),
	}
	if p.Design != nil {
		out.Cost = finitePtr(p.Cost())
		out.Perf = finitePtr(p.Perf())
		enc, err := schedule.EncodeDesign(p.Design)
		if err != nil {
			return nil, err
		}
		out.Design = enc
	}
	return json.Marshal(out)
}

// FrontierSource serves previously proven frontier points into a running
// sweep. Implemented by the cross-request result cache (internal/cache);
// defined here so the sweep layer stays free of cache dependencies.
//
// The contract mirrors the ε-constraint chain: Serve(w) returns the
// longest stored prefix of the remaining chain starting at cost cap w —
// every returned point must be the certified optimum the one-worker sweep
// would have computed at its chain cap, already remapped into the
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

// Engine selects which exact solver traces the frontier.
type Engine int

// Engines.
const (
	// EngineMILP solves each point with the paper's MILP formulation via
	// branch and bound over LP relaxations (internal/model + internal/milp).
	EngineMILP Engine = iota
	// EngineCombinatorial solves each point with the combinatorial branch
	// and bound (internal/exact). Both engines are exact and must agree;
	// the combinatorial one is much faster on the paper's instances.
	EngineCombinatorial
)

// Options configures a sweep.
type Options struct {
	// Engine picks the solver (default EngineMILP, the paper's method).
	Engine Engine
	// MILP budgets each individual MILP solve (EngineMILP only).
	MILP *milp.Options
	// Exact budgets each combinatorial solve (EngineCombinatorial only).
	Exact *exact.Options
	// ModelOpts carries variant switches (memory, no-overlap, ...). Its
	// Objective/CostCap/Deadline fields are managed by the sweep.
	ModelOpts model.Options
	// StartCap, when positive, begins the sweep at this cost cap instead
	// of an uncapped solve.
	StartCap float64

	// Source, when non-nil, serves previously proven frontier points into
	// the sweep: every chain cap the source covers is answered without a
	// solve, and only the uncovered caps (the delta) are solved, seeded
	// with the source's adjacent designs as untrusted warm incumbents.
	Source FrontierSource

	// SweepWorkers, when > 1, solves frontier points speculatively in
	// parallel: a grid of candidate cost caps (derived from the pool's
	// achievable cost levels) is solved by a worker pool while the true
	// ε-constraint chain is reconciled against completed results, and
	// speculative caps a landed point proves redundant are canceled. The
	// frontier returned is identical to the one-worker sweep's. At 0 or 1
	// every cap is solved inline, in chain order, and no speculative grid
	// is computed. Either way the sweep builds two model templates and
	// retargets them per solve. See DESIGN.md §10.
	SweepWorkers int

	// Governor, when non-nil, apportions one wall-clock budget across the
	// whole sweep: every individual solve's time limit becomes the tighter
	// of its own TimeLimit and the governor's next slice.
	Governor *budget.Governor
	// Ladder, when non-nil, enables graceful degradation: a point whose
	// exact solve exhausts its slice, or fails outright, is retried on the
	// next (cheaper) rung instead of aborting the sweep, and the best
	// incumbent across rungs is kept with a StatusFeasible annotation (the
	// settlement rule of race.Portfolio). Without a ladder the sweep is
	// strict: a point that cannot be certified stops the sweep with a
	// typed budget.ErrExhausted error (wrapping ctx.Err() on cancellation),
	// returning the certified prefix.
	Ladder budget.Ladder

	// Race, when true, solves each frontier point by running the ladder's
	// rungs *concurrently* over a shared incumbent bus instead of walking
	// them in sequence: every entrant publishes each feasible design it
	// finds (feasibility-vetted before adoption), every entrant polls for
	// the others' designs to tighten its own pruning, and the first rung
	// to certify the point (Optimal or Infeasible) wins while the rest
	// are canceled. Where the sequential ladder spends a decaying
	// governor slice per rung, a race gives every rung the same
	// wall-clock window at once. The frontier returned is identical to
	// the sequential ladder's — certified points are value-unique — and
	// racing composes with SweepWorkers (each point's race runs inside
	// its sweep worker). When no Ladder is set, the default ladder for
	// the selected engine is raced.
	Race bool

	// Telemetry, when non-nil, records per-point slice spend, ladder
	// degradations, and dominated-point drops, and is threaded into every
	// engine solve (unless that engine's own options already carry a
	// collector).
	Telemetry *telemetry.Collector
}

// CostStep is how far below a found design's cost the next cap of a
// Sweep is set, matching the paper's unit-cost processors and links.
const CostStep = 1.0

// Sweep traces the non-inferior set from best performance to lowest cost.
// The returned points are ordered by decreasing cost and strictly
// increasing makespan; every point is validated before being returned.
//
// Anytime contract: a point whose solve exhausts its budget but still holds
// an incumbent is appended with a StatusFeasible annotation. Without a
// degradation Ladder the sweep then stops and reports a typed
// budget.ErrExhausted error (wrapping ctx.Err() on cancellation); with a
// Ladder it keeps sweeping on cheaper rungs. A point that yields nothing
// within budget always stops the sweep with the typed error, returning the
// partial frontier.
func Sweep(ctx context.Context, g *taskgraph.Graph, pool *arch.Instances, topo arch.Topology, opts Options) ([]Point, error) {
	// Speculative workers beyond the machine's available parallelism only
	// add scheduling contention and wasted speculative solves.
	opts.SweepWorkers = min(opts.SweepWorkers, runtime.GOMAXPROCS(0))
	sw := newSweeper(g, pool, topo, opts, false)
	// Drain the frontier source first: served points cost nothing, so they
	// land before (and independent of) the governor's budget, and a covered
	// prefix moves the speculative grid to the uncovered region.
	points, costCap, done := sw.drain(nil, opts.StartCap)
	if done {
		return points, nil
	}
	resolve := sw.inline
	if opts.SweepWorkers > 1 {
		q := sw.speculate(ctx, costCap)
		defer q.close()
		resolve = q.resolve
	}
	for {
		if opts.Ladder == nil && opts.Governor.Exhausted() {
			return points, budget.Exhausted(ctx, "pareto: sweep budget exhausted before cap %g", costCap)
		}
		pt, err := resolve(ctx, costCap)
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
		if pt.Status != budget.StatusOptimal && opts.Ladder == nil {
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
// The deadline sweep solves every point inline (SweepWorkers and Source
// apply to Sweep only) on the same two model templates Sweep retargets.
func SweepByDeadline(ctx context.Context, g *taskgraph.Graph, pool *arch.Instances, topo arch.Topology, opts Options, perfStep float64) ([]Point, error) {
	if perfStep <= 0 {
		perfStep = 1e-3
	}
	opts.Source = nil
	sw := newSweeper(g, pool, topo, opts, true)
	// The loosest deadline worth considering: the serial time of the
	// slowest-capable mapping, which every feasible instance can meet.
	deadline := model.BigM(g, pool, topo)
	lastPerf := math.Inf(1)
	var points []Point
	for {
		if opts.Ladder == nil && opts.Governor.Exhausted() {
			return points, budget.Exhausted(ctx, "pareto: sweep budget exhausted before deadline %g", deadline)
		}
		pt, err := sw.inline(ctx, deadline)
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
		if pt.Status != budget.StatusOptimal && opts.Ladder == nil {
			return points, budget.Exhausted(ctx, "pareto: deadline %g not proven optimal (%v, gap %.3g)",
				deadline, pt.Status, pt.Gap)
		}
		if deadline = pt.Perf() - perfStep; deadline <= 0 {
			return points, nil
		}
	}
}

// sweeper is one sweep's shared state: its options and the problem
// family that solves every chain bound — on the deadline axis (the
// family's MinCost) each bound is a deadline and a point's first solve
// minimizes cost. Speculative workers share it.
type sweeper struct {
	opts Options
	fam  *race.Family
}

func newSweeper(g *taskgraph.Graph, pool *arch.Instances, topo arch.Topology, opts Options, byDeadline bool) *sweeper {
	ladder := opts.Ladder
	if len(ladder) == 0 {
		first := budget.RungMILP
		if opts.Engine == EngineCombinatorial {
			first = budget.RungCombinatorial
		}
		ladder = budget.Ladder{first}
		if opts.Race {
			ladder = budget.DefaultLadder(first)
		}
	}
	fam := &race.Family{G: g, Pool: pool, Topo: topo, ModelOpts: opts.ModelOpts,
		MinCost: byDeadline, Rungs: race.Resolve(ladder, byDeadline, opts.Race), Race: opts.Race,
		Frontier: true, Governor: opts.Governor, Telemetry: opts.Telemetry}
	if opts.MILP != nil {
		fam.MILP = *opts.MILP
	}
	if opts.Exact != nil {
		fam.Exact = *opts.Exact
	}
	return &sweeper{opts: opts, fam: fam}
}

// inline solves chain bound w on the caller's goroutine. Time left over
// from the governor's slice rolls over to every later point (the governor
// recomputes remaining budget from the wall clock).
func (sw *sweeper) inline(ctx context.Context, w float64) (Point, error) {
	tel := sw.opts.Telemetry
	slice := sw.opts.Governor.Slice()
	start := time.Now()
	pt, err := sw.point(ctx, w)
	spend := time.Since(start)
	if err != nil {
		return pt, err
	}
	tel.Emit(telemetry.EvPoint, 0, spend.Seconds(), pt.Status.String())
	if slice > 0 && spend < slice {
		tel.Inc(telemetry.CtrRollovers)
		tel.Emit(telemetry.EvRollover, 0, (slice - spend).Seconds(), "")
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
	tel := sw.opts.Telemetry
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
		tel.Emit(telemetry.EvDominated, 0, other(last), last.Status.String())
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

// point solves one chain bound — a cost cap, or a deadline on the
// deadline axis — as a frontier point of the sweep's family: a walk down
// its rungs, or a race of them when Options.Race is set, seeded with the
// frontier source's stored designs next to the bound.
func (sw *sweeper) point(ctx context.Context, w float64) (Point, error) {
	var warm []*schedule.Design
	if sw.opts.Source != nil {
		warm = sw.opts.Source.Warm(w, race.MaxWarm)
	}
	s := sw.fam.Point(ctx, w, warm)
	if s.Err != nil {
		return Point{}, s.Err
	}
	pt := Point{Design: s.Design, Status: s.Status, Gap: s.Gap}
	if sw.opts.Ladder != nil || sw.opts.Race {
		// A strict sweep names no ladder rung, like the certified points
		// a FrontierSource serves.
		pt.Rung = s.Rung
	}
	return pt, nil
}

// Dominates reports whether point a dominates point b (no worse in both
// dimensions, strictly better in at least one).
func Dominates(a, b Point) bool {
	return a.Cost() <= b.Cost() && a.Perf() <= b.Perf() &&
		(a.Cost() < b.Cost() || a.Perf() < b.Perf())
}

// Filter returns the non-dominated subset of points, ordered by ascending
// cost.
func Filter(points []Point) []Point {
	var out []Point
	for i, p := range points {
		dominated := false
		for j, q := range points {
			if i != j && (Dominates(q, p) || (q.Cost() == p.Cost() && q.Perf() == p.Perf() && j < i)) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, p)
		}
	}
	sortByCost(out)
	return out
}

func sortByCost(points []Point) {
	for i := 1; i < len(points); i++ {
		for j := i; j > 0 && points[j].Cost() < points[j-1].Cost(); j-- {
			points[j], points[j-1] = points[j-1], points[j]
		}
	}
}

// FrontierEquals compares a computed frontier against expected
// (cost, perf) pairs within tol, ignoring order.
func FrontierEquals(points []Point, want [][2]float64, tol float64) error {
	if len(points) != len(want) {
		return fmt.Errorf("pareto: %d frontier points, want %d", len(points), len(want))
	}
	used := make([]bool, len(want))
	for _, p := range points {
		found := false
		for i, w := range want {
			if used[i] {
				continue
			}
			if math.Abs(p.Cost()-w[0]) <= tol && math.Abs(p.Perf()-w[1]) <= tol {
				used[i] = true
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("pareto: unexpected frontier point (cost=%g, perf=%g)", p.Cost(), p.Perf())
		}
	}
	return nil
}
