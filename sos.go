// Package sos synthesizes application-specific heterogeneous
// multiprocessor systems, reproducing Prakash & Parker's SOS
// ("Synthesis of Application-Specific Heterogeneous Multiprocessor
// Systems", 1992). Given a task data flow graph and a library of
// heterogeneous processor types, it produces a complete system — the
// processors to buy, the interconnect links to build, the
// subtask-to-processor mapping, and a static schedule — that is optimal
// for the chosen objective: minimum task completion time under a cost cap,
// or minimum cost under a deadline.
//
// Two exact engines are provided. EngineMILP is the paper's method: the
// problem is compiled into a mixed integer-linear program (constraint
// families (3.3.1)–(3.3.13), linearized per §3.4) and solved by branch and
// bound over an LP relaxation, all implemented here from scratch.
// EngineCombinatorial solves the identical problem by direct combinatorial
// search (mapping enumeration + disjunctive scheduling) and is much faster
// on paper-scale instances; the two cross-validate each other. EngineAuto
// picks the combinatorial engine.
//
// Basic use:
//
//	g := sos.NewGraph("pipeline")
//	fir := g.AddSubtask("fir")
//	fft := g.AddSubtask("fft")
//	g.AddArc(fir, fft, sos.ArcSpec{Volume: 2})
//
//	lib := sos.NewLibrary("boards", 1 /*C_L*/, 1 /*D_CR*/, 0 /*D_CL*/)
//	lib.AddType("dsp", 5, []float64{1, 4})
//	lib.AddType("gp", 3, []float64{3, 3})
//
//	res, err := sos.Synthesize(ctx, sos.Spec{Graph: g, Library: lib})
//	fmt.Println(res.Design)          // cost/perf/processor summary
//	fmt.Print(res.Design.Gantt(60))  // Figure-2-style schedule chart
package sos

import (
	"context"
	"fmt"
	"math"
	"time"

	"sos/internal/arch"
	"sos/internal/budget"
	"sos/internal/exact"
	"sos/internal/heur"
	"sos/internal/lp"
	"sos/internal/milp"
	"sos/internal/model"
	"sos/internal/pareto"
	"sos/internal/race"
	"sos/internal/schedule"
	"sos/internal/sim"
	"sos/internal/taskgraph"
)

// Re-exported problem-description types. See the internal packages for
// full method documentation.
type (
	// Graph is a task data flow graph (§3.1 of the paper).
	Graph = taskgraph.Graph
	// SubtaskID identifies a subtask node.
	SubtaskID = taskgraph.SubtaskID
	// ArcID identifies a data arc.
	ArcID = taskgraph.ArcID
	// ArcSpec describes a data arc: volume, f_R, f_A.
	ArcSpec = taskgraph.ArcSpec
	// Library is a set of heterogeneous processor types (§3.2).
	Library = arch.Library
	// Pool is the set of processor instances the synthesizer may select.
	Pool = arch.Instances
	// ProcID identifies a processor instance in a Pool.
	ProcID = arch.ProcID
	// Topology is an interconnect style: PointToPoint, Bus, or Ring.
	Topology = arch.Topology
	// Design is a synthesized system plus its static schedule.
	Design = schedule.Design
	// Trace is a simulated execution log.
	Trace = sim.Trace
)

// NewGraph creates an empty task data flow graph.
func NewGraph(name string) *Graph { return taskgraph.New(name) }

// NewLibrary creates a processor library with communication parameters
// C_L (link cost), D_CR (remote delay per data unit), and D_CL (local
// delay per data unit).
func NewLibrary(name string, linkCost, remoteDelay, localDelay float64) *Library {
	return arch.NewLibrary(name, linkCost, remoteDelay, localDelay)
}

// NoTime marks a processor type as incapable of a subtask in
// Library.AddType exec tables.
var NoTime = arch.NoTime

// PointToPoint is the paper's primary interconnect style: a dedicated
// directed link per communicating processor pair.
func PointToPoint() Topology { return arch.PointToPoint{} }

// Bus is the §4.3.2 style: one shared bus serializing all remote traffic.
func Bus() Topology { return arch.Bus{} }

// Ring is the §5 extension: instances on fixed ring slots, hop-count
// delays, per-segment link costs.
func Ring() Topology { return arch.Ring{} }

// SharedMemory is the §5 shared-memory instantiation: remote transfers
// write then read through one global memory port (2·D_CR per unit),
// serializing all remote traffic; moduleCost is charged once if any
// remote transfer exists.
func SharedMemory(moduleCost float64) Topology { return arch.SharedMemory{Cost: moduleCost} }

// FixedPool creates an explicit instance pool: copies[t] instances of each
// library type t.
func FixedPool(lib *Library, copies []int) *Pool { return arch.InstancePool(lib, copies) }

// DefaultPool sizes an instance pool automatically for a graph: per type,
// one instance per runnable subtask, capped at maxPerType (0 = uncapped).
func DefaultPool(lib *Library, g *Graph, maxPerType int) *Pool {
	return arch.AutoPool(lib, g, maxPerType)
}

// Status classifies how a solve terminated under the anytime contract:
// budget exhaustion is a quality level, not a failure.
type Status = budget.Status

// Statuses, from best to worst certificate.
const (
	// StatusOptimal: the result is proven optimal.
	StatusOptimal = budget.StatusOptimal
	// StatusFeasible: an incumbent was found but the budget fired before
	// optimality was proven; Result.Gap quantifies the uncertainty.
	StatusFeasible = budget.StatusFeasible
	// StatusBudgetExhausted: the budget fired before any design was found.
	StatusBudgetExhausted = budget.StatusBudgetExhausted
	// StatusInfeasible: proven that no design exists.
	StatusInfeasible = budget.StatusInfeasible
	// StatusCanceled: the context was canceled before any design was found.
	StatusCanceled = budget.StatusCanceled
)

// ErrBudgetExhausted is the sentinel wrapped by every budget- or
// cancellation-driven early exit from a sweep; check with errors.Is. When
// the exit came from context cancellation the error also wraps ctx.Err(),
// so errors.Is(err, context.Canceled) holds as well.
var ErrBudgetExhausted = budget.ErrExhausted

// Objective selects what synthesis minimizes.
type Objective int

// Objectives.
const (
	// MinMakespan minimizes task completion time subject to Spec.CostCap.
	MinMakespan Objective = iota
	// MinCost minimizes system cost subject to Spec.Deadline.
	MinCost
)

// Engine selects the solver.
type Engine int

// Engines.
const (
	// EngineAuto uses the combinatorial engine (fastest exact method).
	EngineAuto Engine = iota
	// EngineMILP uses the paper's mixed integer-linear programming
	// formulation solved by LP-based branch and bound.
	EngineMILP
	// EngineCombinatorial uses mapping-enumeration + disjunctive
	// scheduling branch and bound.
	EngineCombinatorial
	// EngineHeuristic uses the greedy configuration-enumerating
	// synthesizer with ETF scheduling (fast, inexact baseline).
	EngineHeuristic
)

// LPKernel selects the simplex implementation EngineMILP uses for its
// node relaxations.
type LPKernel = lp.Kernel

// LP kernels.
const (
	// LPKernelAuto picks the dense tableau for paper-scale models and the
	// sparse revised simplex above its size threshold (the default). The
	// paper-milp benchmark's Example 1 MILP sweeps, thousands of small
	// warm re-solves, run 1.6–1.9× faster dense than with the sparse
	// kernel forced. Example 2's MILPs also run dense, although they
	// measured faster on the sparse kernel; the threshold is not retuned
	// for them yet. Generated 100+-subtask models need the sparse kernel
	// (DESIGN.md §11.1).
	LPKernelAuto = lp.KernelAuto
	// LPKernelDense forces the dense tableau kernel.
	LPKernelDense = lp.KernelDense
	// LPKernelSparse forces the sparse revised simplex (CSC columns, LU
	// basis with eta updates and periodic refactorization).
	LPKernelSparse = lp.KernelSparse
)

// Spec describes one synthesis problem.
type Spec struct {
	// Graph is the application's task data flow graph. Required.
	Graph *Graph
	// Library is the processor-type library. Required.
	Library *Library
	// Pool overrides the processor instance pool (default: DefaultPool
	// with 2 instances per type).
	Pool *Pool
	// Topology selects the interconnect style (default PointToPoint).
	Topology Topology

	// Objective (default MinMakespan).
	Objective Objective
	// CostCap bounds system cost under MinMakespan (0 = uncapped).
	CostCap float64
	// Deadline bounds completion time under MinCost. Required there.
	Deadline float64

	// Engine (default EngineAuto).
	Engine Engine
	// Budget caps each solve's wall time (0 = unlimited).
	Budget time.Duration
	// SweepBudget, used by Frontier/FrontierByDeadline, is one total
	// wall-clock budget apportioned across the whole sweep (exponentially
	// decaying per-point slices, unused time rolling over). 0 = unlimited.
	SweepBudget time.Duration
	// Anytime enables graceful degradation in Frontier/FrontierByDeadline:
	// a point whose exact solve exhausts its budget slice, or fails,
	// degrades down the ladder (MILP → combinatorial → heuristic) instead
	// of stopping the sweep, and the resulting FrontierPoint is annotated
	// with its Status and Gap.
	Anytime bool
	// SweepWorkers, when > 1, runs Frontier with that many concurrent
	// point solvers: speculative caps drawn from the design-cost lattice
	// are solved ahead of the ε-constraint chain and reconciled into the
	// identical frontier a one-worker sweep returns (DESIGN.md §10). At 0
	// or 1 every cap is solved in chain order with no speculation. Either
	// way an EngineMILP sweep builds its two models once and retargets
	// them per solve.
	SweepWorkers int
	// Race runs the engine portfolio concurrently instead of one engine
	// (or one ladder rung) at a time: MILP, combinatorial, and heuristic
	// solvers all start at once on a shared incumbent bus — each
	// publishes every feasible design it finds, each adopts the others'
	// (feasibility-vetted) designs to tighten its own pruning — and the
	// first engine to produce a proof (Optimal or Infeasible) wins while
	// the rest are canceled. Results carry Raced/Rung attribution. In
	// Frontier/FrontierByDeadline each point is raced (composing with
	// SweepWorkers); the frontier is identical to the sequential one.
	// EngineHeuristic specs ignore Race — there is only one rung to run.
	Race bool

	// LPKernel selects the simplex kernel for EngineMILP node relaxations
	// (default LPKernelAuto). Ignored by the other engines.
	LPKernel LPKernel
	// LPPresolve enables the LP presolve reduction pass (fixed-variable
	// substitution, singleton-row folding, redundant-row elimination) on
	// EngineMILP relaxations. Ignored by the other engines.
	LPPresolve bool
	// RootCuts enables cover-cut generation from knapsack rows (e.g. the
	// cost-cap row) at the EngineMILP root before branching. Ignored by
	// the other engines.
	RootCuts bool

	// Memory enables the §5 local-memory cost extension.
	Memory bool
	// NoOverlapIO enables the §5 no-I/O-module variant.
	NoOverlapIO bool

	// Telemetry, when non-nil, collects solver counters, phase timings, and
	// (when its sink is set) trace events across the whole solve or sweep.
	// Nil disables all instrumentation at negligible cost.
	Telemetry *Telemetry

	// Hooks injects solver failpoints — crash a worker mid-node, reject
	// warm starts, cap LP iterations — into every MILP solve, sweep points
	// and raced MILP rungs included, letting fault suites drive degraded
	// paths from the very top of the stack (e.g. the sosd request
	// boundary) without reaching into internals. Nil in production;
	// ignored by the other engines.
	Hooks *SolverHooks

	// Cache, when non-nil, consults and feeds the cross-request result
	// cache: exact and cover-down hits return stored proofs without
	// touching a solver (Result.Cached reports this), near-miss hits of
	// the same problem family seed the solve with warm incumbents, and
	// concurrent identical requests coalesce onto one solve. Heuristic
	// requests and specs carrying Hooks bypass the cache. See NewCache.
	Cache *Cache
}

// SolverHooks are failpoint injection points for fault testing the MILP
// engine end to end; see the fields' docs in internal/milp. Production
// callers leave Spec.Hooks nil.
type SolverHooks = milp.Hooks

// LPHooks are failpoint injection points for the LP relaxation layer,
// reachable via SolverHooks.LP.
type LPHooks = lp.Hooks

func (s *Spec) withDefaults() (Spec, error) {
	out := *s
	if out.Graph == nil || out.Library == nil {
		return out, fmt.Errorf("sos: Spec requires Graph and Library")
	}
	if out.Topology == nil {
		out.Topology = arch.PointToPoint{}
	}
	if out.Pool == nil {
		out.Pool = arch.AutoPool(out.Library, out.Graph, 2)
	}
	return out, nil
}

// Result is the outcome of Synthesize.
type Result struct {
	// Design is the synthesized system and schedule (nil when the spec is
	// infeasible).
	Design *Design
	// Status classifies the termination: StatusOptimal and StatusInfeasible
	// are proofs; StatusFeasible carries an incumbent plus a Bound/Gap
	// certificate; StatusBudgetExhausted and StatusCanceled mean the
	// budget or context fired before any design was found.
	Status Status
	// Bound is the best proven bound on the objective (0 when unknown).
	Bound float64
	// Gap is the relative optimality gap |obj-Bound|/max(1,|obj|) of a
	// StatusFeasible incumbent; +Inf when no bound is known (heuristic).
	Gap float64
	// Optimal reports whether optimality was proven. Heuristic results
	// and budget-limited searches report false.
	Optimal bool
	// Infeasible reports a proven-infeasible spec.
	Infeasible bool
	// Engine that produced the result.
	Engine Engine
	// Nodes explored by the search (0 for the heuristic, and 0 when the
	// result was served from the cache — no search ran).
	Nodes int
	// ModelStats describes the MILP when EngineMILP ran.
	ModelStats *model.Stats
	// Cached reports that the result was served from Spec.Cache (an exact
	// or cover-down proof hit) without running a solver.
	Cached bool
	// Raced reports that the engine portfolio was raced (Spec.Race).
	Raced bool
	// Rung names the ladder rung that produced the result of a raced
	// solve ("milp", "combinatorial", "heuristic"); empty otherwise.
	Rung string
}

// Synthesize solves one synthesis problem. Every returned design has been
// re-checked by the independent schedule validator.
func Synthesize(ctx context.Context, spec Spec) (*Result, error) {
	sp, err := spec.withDefaults()
	if err != nil {
		return nil, err
	}
	if sp.Cache != nil && cacheEligible(sp) {
		if res, err, ok := sp.Cache.synthesize(ctx, sp); ok {
			return res, err
		}
	}
	return solve(ctx, sp, nil)
}

// cacheEligible reports whether a spec may be served by / stored into the
// result cache. Heuristic requests expect an inexact answer (a cached
// proof would change semantics, and a heuristic result must never be
// cached as one), and specs carrying failpoint hooks must actually reach
// the solver for the fault to fire.
func cacheEligible(sp Spec) bool {
	return sp.Engine != EngineHeuristic && sp.Hooks == nil
}

// milpSolve runs one already-built MILP model and maps the solver status
// onto a Result. The batch path shares this with the single-solve path:
// it is where cloned sweep-template models and accumulated incumbent
// pools enter; a non-nil bus hooks the solve onto a race. The returned
// design is not yet validated — callers go through finishSolve.
func milpSolve(ctx context.Context, sp Spec, m *model.Model, pool [][]float64, bus *race.Bus) (*Result, error) {
	res := &Result{Engine: sp.Engine}
	st := m.Stats
	res.ModelStats = &st
	opts := &milp.Options{
		TimeLimit:     sp.Budget,
		Telemetry:     sp.Telemetry,
		RootCuts:      sp.RootCuts,
		Hooks:         sp.Hooks,
		IncumbentPool: pool,
		LP:            &lp.Options{Kernel: sp.LPKernel, Presolve: sp.LPPresolve},
	}
	bus.AttachMILP(opts, m, budget.RungMILP)
	design, sol, err := m.Solve(ctx, opts)
	if err != nil {
		return nil, err
	}
	res.Nodes = sol.Nodes
	res.Design = design
	res.Optimal = sol.Status == milp.Optimal
	res.Infeasible = sol.Status == milp.Infeasible
	switch sol.Status {
	case milp.Optimal:
		res.Status = StatusOptimal
		res.Bound = sol.Obj
	case milp.Feasible:
		res.Status = StatusFeasible
		res.Bound = sol.Bound
		res.Gap = sol.Gap
	case milp.Infeasible:
		res.Status = StatusInfeasible
	case milp.Unbounded:
		return nil, fmt.Errorf("sos: MILP relaxation unbounded (model bug)")
	default: // milp.NoSolution: budget or cancellation before any incumbent
		res.Status = StatusBudgetExhausted
		if ctx.Err() != nil {
			res.Status = StatusCanceled
		}
	}
	return res, nil
}

// solve runs one defaulted spec: the raced portfolio when Spec.Race asks
// for it, otherwise the spec's engine. warm optionally carries untrusted
// incumbent designs (cache near-misses) that seed the exact engines'
// pruning; each engine feasibility-checks them itself.
func solve(ctx context.Context, sp Spec, warm []*schedule.Design) (*Result, error) {
	if sp.Race && sp.Engine != EngineHeuristic {
		return solveRace(ctx, sp, warm)
	}
	res, err := engineSolve(ctx, sp, warm, nil)
	if err != nil {
		return nil, err
	}
	return finishSolve(sp, res)
}

// engineSolve dispatches one spec to its engine, hooked onto bus when it
// is non-nil. The result is not yet validated — callers go through
// finishSolve.
func engineSolve(ctx context.Context, sp Spec, warm []*schedule.Design, bus *race.Bus) (*Result, error) {
	res := &Result{Engine: sp.Engine}
	switch sp.Engine {
	case EngineMILP:
		mo := model.Options{CostCap: sp.CostCap, Deadline: sp.Deadline,
			Memory: sp.Memory, NoOverlapIO: sp.NoOverlapIO}
		if sp.Objective == MinCost {
			mo.Objective = model.MinCost
		}
		m, err := model.Build(sp.Graph, sp.Pool, sp.Topology, mo)
		if err != nil {
			return nil, err
		}
		var pool [][]float64
		for _, w := range warm {
			if v, err := m.IncumbentVector(w); err == nil {
				pool = append(pool, v)
			}
		}
		return milpSolve(ctx, sp, m, pool, bus)
	case EngineHeuristic:
		maxCounts := make([]int, sp.Library.NumTypes())
		for _, p := range sp.Pool.Procs() {
			maxCounts[p.Type]++
		}
		hd, err := heur.Synthesize(sp.Graph, sp.Library, sp.Topology, heur.SynthOptions{
			CostCap: sp.CostCap, MaxCounts: maxCounts,
		})
		if err != nil {
			res.Infeasible = true
			res.Status = StatusInfeasible
			return res, nil
		}
		if sp.Objective == MinCost && hd.Makespan > sp.Deadline+1e-9 {
			// The greedy synthesizer ignores deadlines: a design that
			// misses this one is no answer, and missing it proves nothing.
			res.Status = StatusBudgetExhausted
			return res, nil
		}
		res.Design = hd
		res.Status = StatusFeasible
		res.Gap = math.Inf(1)
	default: // EngineAuto, EngineCombinatorial
		eo := exact.Options{CostCap: sp.CostCap, Deadline: sp.Deadline,
			TimeLimit: sp.Budget, NoOverlapIO: sp.NoOverlapIO, Telemetry: sp.Telemetry}
		if sp.Objective == MinCost {
			eo.Objective = exact.MinCost
		}
		if len(warm) > 0 {
			eo.Warm = warm[0] // best-objective candidate; exact vets it
		}
		bus.AttachExact(&eo, budget.RungCombinatorial)
		r, err := exact.Synthesize(ctx, sp.Graph, sp.Pool, sp.Topology, eo)
		if err != nil {
			return nil, err
		}
		res.Design = r.Design
		res.Optimal = r.Optimal && r.Design != nil
		res.Infeasible = r.Optimal && r.Design == nil
		res.Status = r.Status
		res.Bound = r.Bound
		res.Gap = r.Gap
		res.Nodes = r.Nodes
	}
	return res, nil
}

// finishSolve applies the result invariants every solve path shares:
// unknown-gap normalization and the independent schedule re-validation.
func finishSolve(sp Spec, res *Result) (*Result, error) {
	if res.Status == StatusBudgetExhausted || res.Status == StatusCanceled {
		// No incumbent and no proof: the optimality gap is unknown, which
		// Result documents as +Inf (not 0, which would read as "proven").
		res.Gap = math.Inf(1)
	}
	if res.Design != nil {
		if err := res.Design.Validate(&schedule.ValidateOptions{NoOverlapIO: sp.NoOverlapIO}); err != nil {
			return nil, fmt.Errorf("sos: synthesized design failed validation: %w", err)
		}
	}
	return res, nil
}

// FrontierPoint is one non-inferior design of a cost/performance sweep.
type FrontierPoint struct {
	Design *Design
	Cost   float64
	Perf   float64
	// Status annotates the point's quality: StatusOptimal means certified
	// non-inferior, StatusFeasible means a budget-degraded incumbent whose
	// Gap bounds how far it may sit above the true frontier.
	Status Status
	// Gap is the relative optimality gap of a StatusFeasible point (+Inf
	// when no bound is known, e.g. from the heuristic ladder rung).
	Gap float64
}

// Frontier traces the complete non-inferior (cost, performance) design
// set of a spec by sweeping the cost cap, the way the paper generates its
// Tables II, IV, and V. Spec.CostCap, when > 0, is the sweep's starting
// cap (0 sweeps the whole frontier); Spec.Objective/Deadline are ignored.
//
// When Spec.Cache is set, every certified point of the sweep is stored
// there as a proof at its chain cap: a repeat sweep of the same problem
// family is served from the cache without running a solver, and a sweep
// whose cap range is only partially covered delta-resolves just the
// uncovered caps (seeding those solves with adjacent cached designs).
// Only certified chains are cached, so served frontiers are
// bit-identical to cold sweeps. See DESIGN.md §15.
func Frontier(ctx context.Context, spec Spec) ([]FrontierPoint, error) {
	sp, err := spec.withDefaults()
	if err != nil {
		return nil, err
	}
	if sp.Cache != nil && cacheEligible(sp) {
		if pts, err, ok := sp.Cache.frontier(ctx, sp); ok {
			return pts, err
		}
	}
	opts := sweepOptions(sp)
	pts, err := pareto.Sweep(ctx, sp.Graph, sp.Pool, sp.Topology, opts)
	return frontierPoints(pts), err
}

// sweepOptions translates a Spec into pareto sweep options, wiring the
// budget governor and degradation ladder when the spec asks for them.
func sweepOptions(sp Spec) pareto.Options {
	opts := pareto.Options{
		ModelOpts:    model.Options{Memory: sp.Memory, NoOverlapIO: sp.NoOverlapIO},
		Telemetry:    sp.Telemetry,
		SweepWorkers: sp.SweepWorkers,
		StartCap:     sp.CostCap,
	}
	var first budget.Rung
	switch sp.Engine {
	case EngineMILP:
		opts.Engine = pareto.EngineMILP
		opts.MILP = &milp.Options{
			TimeLimit: sp.Budget,
			RootCuts:  sp.RootCuts,
			Hooks:     sp.Hooks,
			LP:        &lp.Options{Kernel: sp.LPKernel, Presolve: sp.LPPresolve},
		}
		first = budget.RungMILP
	default:
		opts.Engine = pareto.EngineCombinatorial
		opts.Exact = &exact.Options{TimeLimit: sp.Budget, NoOverlapIO: sp.NoOverlapIO}
		first = budget.RungCombinatorial
	}
	if sp.SweepBudget > 0 {
		opts.Governor = budget.New(sp.SweepBudget).WithTelemetry(sp.Telemetry)
	}
	if sp.Anytime {
		opts.Ladder = budget.DefaultLadder(first)
	}
	opts.Race = sp.Race
	return opts
}

func frontierPoints(pts []pareto.Point) []FrontierPoint {
	out := make([]FrontierPoint, len(pts))
	for i, p := range pts {
		out[i] = FrontierPoint{Design: p.Design, Cost: p.Cost(), Perf: p.Perf(),
			Status: p.Status, Gap: p.Gap}
	}
	return out
}

// FrontierByDeadline traces the same non-inferior set as Frontier but from
// the timing side: repeatedly minimize cost under a deadline just below
// the previous design's makespan. perfStep is the deadline decrement
// (0 = default 1e-3; it must exceed solver noise).
func FrontierByDeadline(ctx context.Context, spec Spec, perfStep float64) ([]FrontierPoint, error) {
	sp, err := spec.withDefaults()
	if err != nil {
		return nil, err
	}
	opts := sweepOptions(sp)
	pts, err := pareto.SweepByDeadline(ctx, sp.Graph, sp.Pool, sp.Topology, opts, perfStep)
	return frontierPoints(pts), err
}

// Validate re-checks a design against every correctness rule of the
// paper's §3.3 (mapping, capability, durations, data availability, f_R
// deadlines, transfer delays, processor and link exclusion, accounting).
func Validate(d *Design) error { return d.Validate(nil) }

// Simulate replays a design's static schedule on the discrete-event
// machine model and returns the event trace; it errors on any causality
// or resource conflict the hardware would hit.
func Simulate(d *Design) (*Trace, error) { return sim.Replay(d) }

// SimulateSelfTimed executes the design as-soon-as-possible, keeping only
// the schedule's per-resource event orders, and returns the compressed
// trace (its makespan never exceeds the static schedule's).
func SimulateSelfTimed(d *Design) (*Trace, error) { return sim.SelfTimed(d) }

// Metrics summarizes an executed schedule: processor and link utilization
// plus peak I/O-module buffer occupancy (the §5 buffer-sizing analysis).
type Metrics = sim.Metrics

// Measure computes Metrics for a design's static schedule.
func Measure(d *Design) *Metrics { return sim.Measure(d) }

// SlackReport describes per-activity slack and the critical path of a
// schedule — where a designer must add hardware or speed to go faster.
type SlackReport = sim.SlackReport

// Slack computes the slack report for a design.
func Slack(d *Design) (*SlackReport, error) { return sim.Slack(d) }
