package race

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"

	"sos/internal/arch"
	"sos/internal/budget"
	"sos/internal/exact"
	"sos/internal/heur"
	"sos/internal/milp"
	"sos/internal/model"
	"sos/internal/schedule"
	"sos/internal/taskgraph"
	"sos/internal/telemetry"
)

// MaxWarm bounds the warm designs a caller hands one Point: vetting each
// costs a pass over the model rows.
const MaxWarm = 4

// maxIncumbentPool bounds the family's pool of designs shared between
// points: feasibility-checking a candidate costs one pass over the rows,
// so an unbounded pool would slowly tax every solve of a long sweep.
const maxIncumbentPool = 32

// Family is one synthesis problem solved at many bounds — cost caps on
// the makespan axis, deadlines on the cost axis — by one portfolio, and
// Point solves one of those bounds. A single solve is a family of one
// point, a batch group is one family, and a sweep is one family plus its
// chain. Across its points a family shares two MILP templates, each built
// on its axis's first MILP solve and retargeted per solve with
// SetCostCap/SetDeadline, and a bounded pool of untrusted incumbents that
// every MILP solve feeds.
//
// Set the exported fields before the first Point; Point is then safe for
// concurrent use.
type Family struct {
	G    *taskgraph.Graph
	Pool *arch.Instances
	Topo arch.Topology
	// ModelOpts carries the model variant switches (Memory, NoOverlapIO);
	// the family sets Objective, CostCap and Deadline.
	ModelOpts model.Options
	// MinCost puts the family on the cost axis: every bound is a deadline
	// and a point minimizes cost. Otherwise every bound is a cost cap
	// (<= 0 uncapped) and a point minimizes makespan.
	MinCost bool
	// Rungs is the portfolio each point runs, as Resolve returns it.
	Rungs budget.Ladder
	// Race runs a point's rungs at once on an incumbent bus instead of
	// walking them in order.
	Race bool
	// Frontier makes every point a frontier point: an exact rung's
	// optimum is tightened lexicographically on the other axis, so the
	// point is non-inferior, and on the makespan axis the MILP starts
	// from the point's greedy design.
	Frontier bool
	// MILP and Exact are the engines' per-solve options; the family sets
	// the objective, the bound, the seeds and the bus hooks.
	MILP  milp.Options
	Exact exact.Options
	// Governor, when non-nil, caps every engine solve's time limit with
	// its next slice.
	Governor *budget.Governor
	// Telemetry receives race attribution and degradation events, and
	// reaches every engine solve whose options carry no collector.
	Telemetry *telemetry.Collector

	tplOnce [2]sync.Once
	tpl     [2]*model.Model
	tplErr  [2]error

	mu   sync.Mutex
	incs [][]float64 // incumbent vectors in the templates' column layout
}

// point is one bound's solve, shared by the rungs that run it.
type point struct {
	f    *Family
	w    float64
	vo   *schedule.ValidateOptions
	warm []*schedule.Design

	greedyOnce sync.Once
	greedy     *schedule.Design
}

// Point solves the family at bound w through its portfolio, raced on a
// bus when Race is set and walked otherwise, and returns the settlement.
// warm seeds the exact rungs with untrusted designs — the result cache's
// near misses, or a frontier source's chain points next to w — best
// first; every engine vets a warm design before adopting it. Every
// design Point returns has passed the schedule validator. Answer.Nodes
// and Answer.Model describe the settled rung's own solve.
func (f *Family) Point(ctx context.Context, w float64, warm []*schedule.Design) Settled {
	pt := &point{f: f, w: w, vo: &schedule.ValidateOptions{NoOverlapIO: f.ModelOpts.NoOverlapIO}, warm: warm}
	var bus *Bus
	if f.Race {
		bus = NewBusFor(f.G, f.Pool, f.Topo, pt.vo, f.MinCost, w)
	}
	tel := f.Telemetry
	p := Portfolio{MinCost: f.MinCost, Telemetry: tel}
	for i, r := range f.Rungs {
		p.Rungs = append(p.Rungs, Rung{Rung: r, Run: func(ctx context.Context) (Answer, error) {
			if i > 0 && bus == nil {
				tel.Inc(telemetry.CtrDegrades)
				tel.Emit(telemetry.EvDegrade, 0, w, r.String())
			}
			switch r {
			case budget.RungMILP:
				return pt.milp(ctx, bus)
			case budget.RungHeuristic:
				return pt.heuristic(ctx, bus), nil
			default:
				return pt.exact(ctx, bus)
			}
		}})
	}
	if bus != nil {
		return p.Race(ctx)
	}
	return p.Walk(ctx)
}

// milp solves the point's bound on its axis's template, seeded with the
// family's incumbent pool and the point's warm designs (and, for a
// frontier point on the makespan axis, its greedy design). A frontier
// point's optimum is then tightened on the other template.
func (pt *point) milp(ctx context.Context, bus *Bus) (Answer, error) {
	f := pt.f
	m, err := f.model(f.MinCost, pt.w)
	if err != nil {
		return Answer{}, err
	}
	o := f.milpOptions()
	if f.Frontier && !f.MinCost {
		if d := pt.greedyDesign(ctx); d != nil {
			if inc, err := m.IncumbentVector(d); err == nil {
				o.Incumbent = inc
			}
		}
	}
	o.IncumbentPool = f.candidates()
	for _, d := range pt.warm {
		if inc, err := m.IncumbentVector(d); err == nil {
			o.IncumbentPool = append(o.IncumbentPool, inc)
		}
	}
	bus.AttachMILP(&o, m, budget.RungMILP)
	design, sol, err := m.Solve(ctx, &o)
	if err != nil {
		return Answer{}, err
	}
	f.share(m, design)
	st := m.Stats
	a := Answer{Nodes: sol.Nodes, Model: &st}
	switch sol.Status {
	case milp.Infeasible:
		a.Status = budget.StatusInfeasible
		return a, nil
	case milp.Optimal:
	case milp.Feasible:
		// A budget-limited incumbent: tightening presumes the first
		// objective optimal, so it is skipped.
		if design == nil {
			a.Status, a.Bound = budget.StatusBudgetExhausted, sol.Bound
			return a, nil
		}
		if err := pt.validate(design); err != nil {
			return Answer{}, err
		}
		a.Design, a.Status, a.Bound, a.Gap = design, budget.StatusFeasible, sol.Bound, sol.Gap
		return a, nil
	case milp.NoSolution:
		a.Status, a.Bound = budget.StatusBudgetExhausted, sol.Bound
		return a, nil
	default:
		return Answer{}, fmt.Errorf("race: bound %g relaxation unbounded (model bug)", pt.w)
	}
	if design == nil {
		return Answer{}, fmt.Errorf("race: optimal status without a design at bound %g", pt.w)
	}
	if f.Frontier {
		at := design.Makespan
		if f.MinCost {
			at = design.Cost
		}
		tm, err := f.model(!f.MinCost, at)
		if err != nil {
			return Answer{}, err
		}
		to := f.milpOptions()
		if inc, err := tm.IncumbentVector(design); err == nil {
			to.Incumbent = inc
		}
		to.IncumbentPool = f.candidates()
		better, tsol, err := tm.Solve(ctx, &to)
		if err != nil {
			return Answer{}, err
		}
		if tsol.Status == milp.Optimal && better != nil {
			design = better
			f.share(tm, better)
		}
	}
	if err := pt.validate(design); err != nil {
		return Answer{}, err
	}
	a.Design, a.Status, a.Bound = design, budget.StatusOptimal, sol.Obj
	return a, nil
}

// exact is milp on the combinatorial engine, seeded with the point's best
// warm design.
func (pt *point) exact(ctx context.Context, bus *Bus) (Answer, error) {
	f := pt.f
	eo := f.Exact
	if eo.Telemetry == nil {
		eo.Telemetry = f.Telemetry
	}
	if f.MinCost {
		eo.Objective, eo.Deadline, eo.CostCap = exact.MinCost, pt.w, 0
	} else {
		eo.Objective, eo.CostCap, eo.Deadline = exact.MinMakespan, pt.w, 0
	}
	eo.TimeLimit = f.Governor.Limit(eo.TimeLimit)
	if eo.Warm == nil && len(pt.warm) > 0 {
		eo.Warm = pt.warm[0]
	}
	bus.AttachExact(&eo, budget.RungCombinatorial)
	res, err := exact.Synthesize(ctx, f.G, f.Pool, f.Topo, eo)
	if err != nil {
		return Answer{}, err
	}
	a := Answer{Status: res.Status, Bound: res.Bound, Gap: res.Gap, Nodes: res.Nodes}
	switch res.Status {
	case budget.StatusOptimal:
	case budget.StatusFeasible:
		if err := pt.validate(res.Design); err != nil {
			return Answer{}, err
		}
		a.Design = res.Design
		return a, nil
	default: // a proven Infeasible, or no design within budget
		return a, nil
	}
	design := res.Design
	if f.Frontier {
		// The tightening solve minimizes on the other axis: its incumbents
		// are not comparable on the bus, so it runs unhooked.
		co := eo
		co.OnIncumbent, co.Foreign = nil, nil
		if f.MinCost {
			co.Objective, co.CostCap, co.Deadline = exact.MinMakespan, design.Cost, 0
		} else {
			co.Objective, co.Deadline, co.CostCap = exact.MinCost, design.Makespan+1e-9, 0
		}
		co.TimeLimit = f.Governor.Limit(co.TimeLimit)
		cres, err := exact.Synthesize(ctx, f.G, f.Pool, f.Topo, co)
		if err != nil {
			return Answer{}, err
		}
		if cres.Optimal && cres.Design != nil {
			design = cres.Design
		}
	}
	if err := pt.validate(design); err != nil {
		return Answer{}, err
	}
	a.Design = design
	return a, nil
}

// heuristic is the cheapest rung: the point's greedy design on the
// family's pool, StatusFeasible with no bound. It proves nothing, so a
// miss is StatusBudgetExhausted, never StatusInfeasible. On the cost axis
// the greedy design is uncapped and kept only when it meets the deadline.
func (pt *point) heuristic(ctx context.Context, bus *Bus) Answer {
	d := pt.greedyDesign(ctx)
	if d == nil || pt.validate(d) != nil || (pt.f.MinCost && d.Makespan > pt.w+1e-9) {
		return Answer{Status: budget.StatusBudgetExhausted}
	}
	obj := d.Makespan
	if pt.f.MinCost {
		obj = d.Cost
	}
	bus.Publish(budget.RungHeuristic, d, obj)
	return Answer{Design: d, Status: budget.StatusFeasible, Gap: math.Inf(1)}
}

// greedyDesign returns the point's greedy design, computing it at most
// once: the frontier MILP's warm start and the heuristic rung want the
// same design, so walk and race entrants share one computation.
func (pt *point) greedyDesign(ctx context.Context) *schedule.Design {
	pt.greedyOnce.Do(func() {
		costCap := pt.w
		if pt.f.MinCost {
			costCap = 0
		}
		pt.greedy = heur.SynthesizeOnPool(ctx, pt.f.G, pt.f.Pool, pt.f.Topo, costCap)
	})
	return pt.greedy
}

func (pt *point) validate(d *schedule.Design) error {
	if err := d.Validate(pt.vo); err != nil {
		return fmt.Errorf("race: bound %g produced invalid design: %w", pt.w, err)
	}
	return nil
}

func (f *Family) milpOptions() milp.Options {
	o := f.MILP
	if o.Telemetry == nil {
		o.Telemetry = f.Telemetry
	}
	o.TimeLimit = f.Governor.Limit(o.TimeLimit)
	return o
}

// model returns the family's MILP at bound w on one axis: that axis's
// template — a MinMakespan build with a placeholder cap row, or a MinCost
// build with a placeholder deadline row — built on first use, retargeted
// to w.
func (f *Family) model(minCost bool, w float64) (*model.Model, error) {
	i := 0
	if minCost {
		i = 1
	}
	f.tplOnce[i].Do(func() {
		mo := f.ModelOpts
		if minCost {
			mo.Objective, mo.Deadline, mo.CostCap = model.MinCost, 1, 0
		} else {
			mo.Objective, mo.CostCap, mo.Deadline = model.MinMakespan, 1, 0
		}
		f.tpl[i], f.tplErr[i] = model.Build(f.G, f.Pool, f.Topo, mo)
	})
	if f.tplErr[i] != nil {
		return nil, f.tplErr[i]
	}
	if minCost {
		return f.tpl[i].SetDeadline(w)
	}
	return f.tpl[i].SetCostCap(w)
}

// share offers a solved design to every later (and concurrent) MILP solve
// of the family. Both templates build identical column sets, so one
// vector serves either axis.
func (f *Family) share(m *model.Model, d *schedule.Design) {
	if d == nil {
		return
	}
	x, err := m.IncumbentVector(d)
	if err != nil {
		return
	}
	f.mu.Lock()
	if len(f.incs) < maxIncumbentPool {
		f.incs = append(f.incs, x)
	}
	f.mu.Unlock()
}

// candidates returns the pool as untrusted seeds: a design found at one
// bound may violate another, so the solver checks each before use.
func (f *Family) candidates() [][]float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return slices.Clone(f.incs)
}
