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
	"time"

	"sos/internal/arch"
	"sos/internal/budget"
	"sos/internal/exact"
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
type Engine = budget.Engine

// Engines.
const (
	// EngineAuto uses the combinatorial engine (fastest exact method).
	EngineAuto = budget.EngineAuto
	// EngineMILP uses the paper's mixed integer-linear programming
	// formulation solved by LP-based branch and bound.
	EngineMILP = budget.EngineMILP
	// EngineCombinatorial uses mapping-enumeration + disjunctive
	// scheduling branch and bound.
	EngineCombinatorial = budget.EngineCombinatorial
	// EngineHeuristic uses the greedy configuration-enumerating
	// synthesizer with ETF scheduling (fast, inexact baseline).
	EngineHeuristic = budget.EngineHeuristic
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
	// Budget caps the wall time of each engine solve (0 = unlimited): of
	// the one engine, or of each rung an Anytime walk or a Race runs. A
	// Frontier/FrontierByDeadline point is solved like a Synthesize of
	// the spec at its bound, so Budget caps every rung of every point.
	Budget time.Duration
	// SweepBudget, used by Frontier/FrontierByDeadline, is one total
	// wall-clock budget apportioned across the whole sweep (exponentially
	// decaying per-point slices, unused time rolling over). 0 = unlimited.
	SweepBudget time.Duration
	// Anytime enables graceful degradation: Synthesize, every SolveBatch
	// member and every Frontier/FrontierByDeadline point walk the ladder
	// from the requested engine (MILP → combinatorial → heuristic; the
	// heuristic is no fallback under MinCost), each rung under Budget and
	// the spec's variant switches (Memory, NoOverlapIO). A rung that
	// proves ends the walk; a rung that exhausts its budget, or fails,
	// hands over to the next; with no proof the best incumbent wins,
	// annotated with its Status and Gap. Anytime also decides what a
	// sweep does with a point it cannot certify: it keeps the point and
	// goes on, where a sweep without Anytime, raced or not, stops there
	// with ErrBudgetExhausted and returns the frontier so far.
	Anytime bool
	// Race runs the engine portfolio concurrently instead of one engine
	// (or one ladder rung) at a time: MILP, combinatorial, and heuristic
	// solvers all start at once on a shared incumbent bus — each
	// publishes every feasible design it finds, each adopts the others'
	// (feasibility-vetted) designs to tighten its own pruning — and the
	// first engine to produce a proof (Optimal or Infeasible) wins while
	// the rest are canceled. Results carry Raced/Rung attribution.
	// Synthesize, every SolveBatch member and every Frontier/
	// FrontierByDeadline point race alike, because all of them solve
	// their bound as one point of the same portfolio, built from the spec
	// the same way, and a raced sweep's frontier is identical to the
	// unraced one. Race does not make a sweep degrade; Anytime does.
	// EngineHeuristic specs ignore Race —
	// there is only one rung to run — except in a sweep, which runs the
	// combinatorial engine for them.
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

	// Hooks injects solver failpoints — crash the search mid-node, reject
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
	// Infeasible reports a proven-infeasible spec: only an exact engine
	// proves it. A heuristic miss is StatusBudgetExhausted with no design
	// and Infeasible false.
	Infeasible bool
	// Engine that produced the result: the rung Rung names when set,
	// otherwise the spec's engine.
	Engine Engine
	// Nodes explored by the search that produced the result (0 for the
	// heuristic, for a raced result with neither a design nor a proof, and
	// when the result was served from the cache — no search ran).
	Nodes int
	// ModelStats describes the MILP's model when the MILP ran alone or
	// produced a raced result (nil on a cache hit).
	ModelStats *model.Stats
	// Cached reports that the result was served from Spec.Cache (an exact
	// or cover-down proof hit) without running a solver.
	Cached bool
	// Raced reports that the engine portfolio was raced (Spec.Race).
	Raced bool
	// Rung names the ladder rung that produced the result ("milp",
	// "combinatorial", "heuristic") when the solve ran more than one rung
	// — raced, or walked under Anytime — and some rung produced it; empty
	// otherwise.
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
	return solvePoint(ctx, sp, newFamily(sp), nil)
}

// cacheEligible reports whether a spec may be served by / stored into the
// result cache. Heuristic requests expect an inexact answer (a cached
// proof would change semantics, and a heuristic result must never be
// cached as one), and specs carrying failpoint hooks must actually reach
// the solver for the fault to fire.
func cacheEligible(sp Spec) bool {
	return sp.Engine != EngineHeuristic && sp.Hooks == nil
}

// bound returns a defaulted spec's ε-bound on its objective's axis: the
// deadline under MinCost, otherwise the cost cap.
func (sp Spec) bound() float64 {
	if sp.Objective == MinCost {
		return sp.Deadline
	}
	return sp.CostCap
}

// newFamily returns the problem family of a defaulted spec: every spec
// that differs from it only in its bound. The family runs the rungs
// race.Rungs gives the spec's engine, Race and Anytime.
func newFamily(sp Spec) *race.Family {
	minCost := sp.Objective == MinCost
	rungs, racing := race.Rungs(sp.Engine, minCost, sp.Race, sp.Anytime)
	return &race.Family{
		G: sp.Graph, Pool: sp.Pool, Topo: sp.Topology,
		ModelOpts: model.Options{Memory: sp.Memory, NoOverlapIO: sp.NoOverlapIO},
		MinCost:   minCost,
		Rungs:     rungs,
		Race:      racing,
		MILP: milp.Options{TimeLimit: sp.Budget, RootCuts: sp.RootCuts, Hooks: sp.Hooks,
			LP: &lp.Options{Kernel: sp.LPKernel, Presolve: sp.LPPresolve}},
		Exact:     exact.Options{TimeLimit: sp.Budget, NoOverlapIO: sp.NoOverlapIO},
		Telemetry: sp.Telemetry,
	}
}

// solvePoint solves a defaulted spec as the point of fam at the spec's
// bound, seeded with untrusted warm designs (cache near misses), and
// reports the settlement. A result some rung of a several-rung family
// produced names that rung, and the rung is its Engine.
func solvePoint(ctx context.Context, sp Spec, fam *race.Family, warm []*schedule.Design) (*Result, error) {
	s := fam.Point(ctx, sp.bound(), warm)
	if s.Err != nil {
		return nil, s.Err
	}
	res := &Result{Design: s.Design, Status: s.Status, Bound: s.Bound, Gap: s.Gap,
		Optimal: s.Status == StatusOptimal, Infeasible: s.Status == StatusInfeasible,
		Engine: sp.Engine, Nodes: s.Nodes, ModelStats: s.Model, Raced: fam.Race}
	if len(fam.Rungs) > 1 && s.Won {
		res.Engine, res.Rung = s.Rung, s.Rung.String()
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
// Each chain cap is solved as Synthesize would solve the spec at that
// cap (same engine options, same rungs, walked or raced alike), with the
// point made non-inferior by a lexicographic second solve.
//
// When Spec.Cache is set, every certified point of the sweep is stored
// there as a proof at its chain cap: a repeat sweep of the same problem
// family is served from the cache without running a solver, and a sweep
// whose cap range is only partially covered delta-resolves just the
// uncovered caps (seeding those solves with adjacent cached designs).
// Only certified chains are cached, so served frontiers are
// bit-identical to cold sweeps. See DESIGN.md §15.
//
// A sweep certifies its points, so EngineHeuristic sweeps run the
// combinatorial engine, as EngineAuto does, and are cached like it.
func Frontier(ctx context.Context, spec Spec) ([]FrontierPoint, error) {
	sp, err := sweepSpec(spec, MinMakespan)
	if err != nil {
		return nil, err
	}
	if sp.Cache != nil && cacheEligible(sp) {
		if pts, err, ok := sp.Cache.frontier(ctx, sp); ok {
			return pts, err
		}
	}
	pts, err := sweep(ctx, sp, nil)
	return frontierPoints(pts), err
}

// sweepSpec defaults a spec for a sweep on objective's axis. A sweep
// certifies its points, so EngineHeuristic runs the combinatorial engine.
func sweepSpec(spec Spec, objective Objective) (Spec, error) {
	spec.Objective = objective
	if spec.Engine == EngineHeuristic {
		spec.Engine = EngineCombinatorial
	}
	return spec.withDefaults()
}

// sweepFamily returns the family that solves every chain bound of a sweep
// of sp: the spec's own family (newFamily) on the sweep's axis, with
// frontier points and the SweepBudget governor.
func sweepFamily(sp Spec) *race.Family {
	fam := newFamily(sp)
	fam.Frontier = true
	if sp.SweepBudget > 0 {
		fam.Governor = budget.New(sp.SweepBudget).WithTelemetry(sp.Telemetry)
	}
	return fam
}

// sweep runs the cost-cap sweep of a Frontier spec, served from src where
// it covers the chain (src nil: solve every cap).
func sweep(ctx context.Context, sp Spec, src pareto.FrontierSource) ([]pareto.Point, error) {
	return pareto.Sweep(ctx, sweepFamily(sp), pareto.Options{StartCap: sp.CostCap, Source: src,
		Anytime: sp.Anytime})
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
// (0 = default 1e-3; it must exceed solver noise). Each deadline is solved
// as Synthesize would solve the spec under MinCost at that deadline;
// EngineHeuristic runs the combinatorial engine, as in Frontier.
func FrontierByDeadline(ctx context.Context, spec Spec, perfStep float64) ([]FrontierPoint, error) {
	sp, err := sweepSpec(spec, MinCost)
	if err != nil {
		return nil, err
	}
	pts, err := pareto.SweepByDeadline(ctx, sweepFamily(sp), pareto.Options{Anytime: sp.Anytime}, perfStep)
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
