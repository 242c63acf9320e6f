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
	"slices"
	"sync"
	"time"

	"sos/internal/arch"
	"sos/internal/budget"
	"sos/internal/exact"
	"sos/internal/heur"
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
	// PerfSol is the min-makespan solve, CostSol the cost-tightening solve.
	PerfSol *milp.Solution
	CostSol *milp.Solution

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
// sweep. Implemented by the cross-request frontier store (internal/cache);
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

// maxWarmFrontier bounds the adjacent stored designs a delta solve is
// seeded with; vetting each candidate costs a pass over the model rows.
const maxWarmFrontier = 4

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
	// CostStep is how far below a found design's cost the next cap is set
	// (default 1, matching the paper's unit-cost processors and links).
	CostStep float64
	// MaxPoints caps the frontier size (0 = unlimited).
	MaxPoints int
	// NoIncumbent disables heuristic warm starts.
	NoIncumbent bool
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

func (o *Options) costStep() float64 {
	if o != nil && o.CostStep > 0 {
		return o.CostStep
	}
	return 1
}

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
	// Drain the frontier store first: served points cost nothing, so they
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
		if opts.MaxPoints > 0 && len(points) >= opts.MaxPoints {
			return points, nil
		}
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
		if costCap = pt.Cost() - opts.costStep(); costCap <= 0 {
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
		if opts.MaxPoints > 0 && len(points) >= opts.MaxPoints {
			return points, nil
		}
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

// sweeper is one sweep's shared state: the problem, its options and
// resolved portfolio, the two solve templates every MILP solve retargets,
// and the cross-point incumbent pool. Speculative workers share it.
type sweeper struct {
	g    *taskgraph.Graph
	pool *arch.Instances
	topo arch.Topology
	opts Options
	vo   *schedule.ValidateOptions
	// byDeadline marks the deadline axis: each chain bound is a deadline,
	// and a point's first solve minimizes cost.
	byDeadline bool
	rungs      budget.Ladder

	// The templates — a MinMakespan model with a placeholder cap row and a
	// MinCost model with a placeholder deadline row — are built once, on
	// the sweep's first MILP solve, and retargeted per solve with
	// SetCostCap/SetDeadline. A sweep whose rungs never reach the MILP
	// builds nothing.
	tplOnce          sync.Once
	perfTpl, costTpl *model.Model
	tplErr           error

	mu   sync.Mutex
	incs [][]float64 // incumbent vectors in the templates' column layout
}

func newSweeper(g *taskgraph.Graph, pool *arch.Instances, topo arch.Topology, opts Options, byDeadline bool) *sweeper {
	if opts.MILP == nil {
		opts.MILP = &milp.Options{}
	}
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
	return &sweeper{g: g, pool: pool, topo: topo, opts: opts, byDeadline: byDeadline,
		vo:    &schedule.ValidateOptions{NoOverlapIO: opts.ModelOpts.NoOverlapIO},
		rungs: race.Resolve(ladder, byDeadline, opts.Race)}
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
	if sw.byDeadline {
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
// complete, the next cap fell ≤ 0, or MaxPoints was reached).
func (sw *sweeper) drain(points []Point, costCap float64) ([]Point, float64, bool) {
	if sw.opts.Source == nil {
		return points, costCap, false
	}
	served, done := sw.opts.Source.Serve(costCap)
	for _, pt := range served {
		if sw.opts.MaxPoints > 0 && len(points) >= sw.opts.MaxPoints {
			return points, costCap, true
		}
		points = sw.appendPoint(points, pt)
		costCap = pt.Cost() - sw.opts.costStep()
	}
	return points, costCap, done || (len(served) > 0 && costCap <= 0)
}

// point solves one chain bound — a cost cap, or a deadline on the
// deadline axis — through the sweep's portfolio: a walk down its rungs,
// or a race of them when Options.Race is set. The rungs of one point
// share one greedy design.
func (sw *sweeper) point(ctx context.Context, w float64) (Point, error) {
	var hm heurMemo
	var bus *race.Bus
	if sw.opts.Race {
		bus = race.NewBusFor(sw.g, sw.pool, sw.topo, sw.vo, sw.byDeadline, w)
	}
	tel := sw.opts.Telemetry
	p := race.Portfolio{MinCost: sw.byDeadline, Telemetry: tel}
	for i, r := range sw.rungs {
		p.Rungs = append(p.Rungs, race.Rung{Rung: r, Run: func(ctx context.Context) (race.Answer, error) {
			if i > 0 && bus == nil {
				tel.Inc(telemetry.CtrDegrades)
				tel.Emit(telemetry.EvDegrade, 0, w, r.String())
			}
			switch r {
			case budget.RungMILP:
				return sw.solveMILP(ctx, w, &hm, bus)
			case budget.RungHeuristic:
				return sw.solveHeur(w, &hm, bus), nil
			default:
				return sw.solveExact(ctx, w, bus)
			}
		}})
	}
	var s race.Settled
	if bus != nil {
		s = p.Race(ctx)
	} else {
		s = p.Walk(ctx)
	}
	if s.Err != nil {
		return Point{}, s.Err
	}
	pt, _ := s.Value.(Point)
	pt.Design, pt.Status, pt.Gap = s.Design, s.Status, s.Gap
	if sw.opts.Ladder != nil || sw.opts.Race {
		// A strict sweep names no ladder rung, like the certified points
		// a FrontierSource serves.
		pt.Rung = s.Rung
	}
	return pt, nil
}

// solveMILP is the lexicographic pair of MILP solves at one chain bound:
// the bound's own objective first (makespan under a cost cap, cost under
// a deadline), then the other objective at the value the first one
// achieved, which makes the point non-inferior. Both solves retarget the
// sweep's templates, and every design they find joins the cross-point
// incumbent pool.
func (sw *sweeper) solveMILP(ctx context.Context, w float64, hm *heurMemo, bus *race.Bus) (race.Answer, error) {
	first, second := sw.perfAt, sw.costAt
	if sw.byDeadline {
		first, second = sw.costAt, sw.perfAt
	}
	m, err := first(w)
	if err != nil {
		return race.Answer{}, err
	}
	o := sw.milpOptions()
	if !sw.byDeadline && !sw.opts.NoIncumbent {
		if d := sw.greedy(hm, w); d != nil {
			if inc, err := m.IncumbentVector(d); err == nil {
				o.Incumbent = inc
			}
		}
	}
	o.IncumbentPool = sw.candidates()
	if sw.opts.Source != nil {
		// Delta-resolve seeding: stored designs adjacent to this cap join
		// the untrusted pool; the solver keeps the best one feasible here.
		for _, d := range sw.opts.Source.Warm(w, maxWarmFrontier) {
			if inc, err := m.IncumbentVector(d); err == nil {
				o.IncumbentPool = append(o.IncumbentPool, inc)
			}
		}
	}
	bus.AttachMILP(&o, m, budget.RungMILP)
	design, sol, err := m.Solve(ctx, &o)
	if err != nil {
		return race.Answer{}, err
	}
	sw.share(m, design)
	sols := func(tighten *milp.Solution) Point {
		if sw.byDeadline {
			return Point{PerfSol: tighten, CostSol: sol}
		}
		return Point{PerfSol: sol, CostSol: tighten}
	}
	switch sol.Status {
	case milp.Infeasible:
		return race.Answer{Status: budget.StatusInfeasible}, nil
	case milp.Optimal:
	case milp.Feasible:
		// Budget-limited incumbent: the tightening solve's premise (that
		// the first objective is optimal) is unproven, so skip it.
		if design == nil {
			return race.Answer{Status: budget.StatusBudgetExhausted, Bound: sol.Bound}, nil
		}
		if err := sw.validate(design, w); err != nil {
			return race.Answer{}, err
		}
		return race.Answer{Design: design, Status: budget.StatusFeasible, Bound: sol.Bound, Gap: sol.Gap,
			Value: sols(nil)}, nil
	case milp.NoSolution:
		return race.Answer{Status: budget.StatusBudgetExhausted, Bound: sol.Bound}, nil
	default:
		return race.Answer{}, fmt.Errorf("pareto: bound %g relaxation unbounded (modeling bug?)", w)
	}
	if design == nil {
		return race.Answer{}, fmt.Errorf("pareto: optimal status without a design at bound %g", w)
	}

	// Lexicographic tightening on the other objective.
	at := design.Makespan
	if sw.byDeadline {
		at = design.Cost
	}
	tm, err := second(at)
	if err != nil {
		return race.Answer{}, err
	}
	to := sw.milpOptions()
	if inc, err := tm.IncumbentVector(design); err == nil {
		to.Incumbent = inc
	}
	to.IncumbentPool = sw.candidates()
	better, tsol, err := tm.Solve(ctx, &to)
	if err != nil {
		return race.Answer{}, err
	}
	if tsol.Status == milp.Optimal && better != nil {
		design = better
		sw.share(tm, better)
	}
	if err := sw.validate(design, w); err != nil {
		return race.Answer{}, err
	}
	return race.Answer{Design: design, Status: budget.StatusOptimal, Value: sols(tsol)}, nil
}

// solveExact is solveMILP on the combinatorial engine.
func (sw *sweeper) solveExact(ctx context.Context, w float64, bus *race.Bus) (race.Answer, error) {
	eo := exact.Options{}
	if sw.opts.Exact != nil {
		eo = *sw.opts.Exact
	}
	if eo.Telemetry == nil {
		eo.Telemetry = sw.opts.Telemetry
	}
	if sw.byDeadline {
		eo.Objective, eo.Deadline, eo.CostCap = exact.MinCost, w, 0
	} else {
		eo.Objective, eo.CostCap, eo.Deadline = exact.MinMakespan, w, 0
	}
	eo.TimeLimit = sw.opts.Governor.Limit(eo.TimeLimit)
	if eo.Warm == nil && sw.opts.Source != nil {
		// Delta-resolve seeding: the engine vets the design before adoption.
		if ws := sw.opts.Source.Warm(w, 1); len(ws) > 0 {
			eo.Warm = ws[0]
		}
	}
	bus.AttachExact(&eo, budget.RungCombinatorial)
	res, err := exact.Synthesize(ctx, sw.g, sw.pool, sw.topo, eo)
	if err != nil {
		return race.Answer{}, err
	}
	switch res.Status {
	case budget.StatusOptimal:
	case budget.StatusFeasible:
		if err := sw.validate(res.Design, w); err != nil {
			return race.Answer{}, err
		}
		return race.Answer{Design: res.Design, Status: budget.StatusFeasible, Bound: res.Bound, Gap: res.Gap}, nil
	default: // a proven Infeasible, or no design within budget
		return race.Answer{Status: res.Status, Bound: res.Bound}, nil
	}
	design := res.Design

	// The tightening solve minimizes on the other axis: its incumbents are
	// not comparable on the bus, so it runs unhooked.
	co := eo
	co.OnIncumbent, co.Foreign = nil, nil
	if sw.byDeadline {
		co.Objective, co.CostCap, co.Deadline = exact.MinMakespan, design.Cost, 0
	} else {
		co.Objective, co.Deadline, co.CostCap = exact.MinCost, design.Makespan+1e-9, 0
	}
	co.TimeLimit = sw.opts.Governor.Limit(co.TimeLimit)
	cres, err := exact.Synthesize(ctx, sw.g, sw.pool, sw.topo, co)
	if err != nil {
		return race.Answer{}, err
	}
	if cres.Optimal && cres.Design != nil {
		design = cres.Design
	}
	if err := sw.validate(design, w); err != nil {
		return race.Answer{}, err
	}
	return race.Answer{Design: design, Status: budget.StatusOptimal}, nil
}

// solveHeur is the cheapest rung: the point's greedy design, validated,
// StatusFeasible with no bound. It proves nothing. On the deadline axis
// the greedy design is uncapped and kept only when it meets the deadline.
func (sw *sweeper) solveHeur(w float64, hm *heurMemo, bus *race.Bus) race.Answer {
	d := sw.greedy(hm, w)
	if d == nil || sw.validate(d, w) != nil || (sw.byDeadline && d.Makespan > w+1e-9) {
		return race.Answer{Status: budget.StatusBudgetExhausted}
	}
	obj := d.Makespan
	if sw.byDeadline {
		obj = d.Cost
	}
	bus.Publish(budget.RungHeuristic, d, obj)
	return race.Answer{Design: d, Status: budget.StatusFeasible, Gap: math.Inf(1)}
}

// heurMemo holds one point's greedy design: the MILP warm start and the
// heuristic rung want the same design, so walk and race entrants share
// one computation of it.
type heurMemo struct {
	once   sync.Once
	design *schedule.Design
}

// greedy returns the point's greedy design, computing it at most once.
func (sw *sweeper) greedy(hm *heurMemo, w float64) *schedule.Design {
	hm.once.Do(func() {
		costCap := w
		if sw.byDeadline {
			costCap = 0
		}
		hm.design = heur.SynthesizeOnPool(sw.g, sw.pool, sw.topo, costCap)
	})
	return hm.design
}

func (sw *sweeper) validate(d *schedule.Design, w float64) error {
	if err := d.Validate(sw.vo); err != nil {
		return fmt.Errorf("pareto: bound %g produced invalid design: %w", w, err)
	}
	return nil
}

func (sw *sweeper) milpOptions() milp.Options {
	o := *sw.opts.MILP
	if o.Telemetry == nil {
		o.Telemetry = sw.opts.Telemetry
	}
	o.TimeLimit = sw.opts.Governor.Limit(o.TimeLimit)
	return o
}

// templates builds the two solve templates on first use.
func (sw *sweeper) templates() error {
	sw.tplOnce.Do(func() {
		pmo := sw.opts.ModelOpts
		pmo.Objective, pmo.CostCap, pmo.Deadline = model.MinMakespan, 1, 0 // placeholder cap row
		if sw.perfTpl, sw.tplErr = model.Build(sw.g, sw.pool, sw.topo, pmo); sw.tplErr != nil {
			return
		}
		cmo := sw.opts.ModelOpts
		cmo.Objective, cmo.Deadline, cmo.CostCap = model.MinCost, 1, 0 // placeholder deadline row
		sw.costTpl, sw.tplErr = model.Build(sw.g, sw.pool, sw.topo, cmo)
	})
	return sw.tplErr
}

func (sw *sweeper) perfAt(costCap float64) (*model.Model, error) {
	if err := sw.templates(); err != nil {
		return nil, err
	}
	return sw.perfTpl.SetCostCap(costCap)
}

func (sw *sweeper) costAt(deadline float64) (*model.Model, error) {
	if err := sw.templates(); err != nil {
		return nil, err
	}
	return sw.costTpl.SetDeadline(deadline)
}

// maxIncumbentPool bounds the cross-point candidate pool offered to each
// MILP solve: feasibility-checking a candidate costs one pass over the
// rows, so an unbounded pool would slowly tax every solve of a long sweep.
const maxIncumbentPool = 32

// share offers a solved design to every later (and concurrent) MILP solve
// of the sweep. Both templates build identical column sets, so one vector
// serves the perf and cost sides alike.
func (sw *sweeper) share(m *model.Model, d *schedule.Design) {
	if d == nil {
		return
	}
	x, err := m.IncumbentVector(d)
	if err != nil {
		return
	}
	sw.mu.Lock()
	if len(sw.incs) < maxIncumbentPool {
		sw.incs = append(sw.incs, x)
	}
	sw.mu.Unlock()
}

// candidates returns the pool as untrusted seeds: a design found at one
// bound may violate another, so the solver checks each before use.
func (sw *sweeper) candidates() [][]float64 {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return slices.Clone(sw.incs)
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
