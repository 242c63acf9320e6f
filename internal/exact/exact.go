// Package exact is a combinatorial branch-and-bound synthesizer that
// solves the same problem as the SOS MILP — minimize makespan subject to a
// cost cap (or minimize cost subject to a deadline) over processor
// selection, mapping, and scheduling — by direct search instead of linear
// programming:
//
//   - an outer DFS enumerates subtask→instance mappings in topological
//     order, with same-type symmetry canonicalization, cost pruning, and
//     critical-path/load lower bounds, and
//   - an inner disjunctive-graph branch and bound (in the tradition of
//     job-shop solvers) finds the optimal schedule of a fixed mapping by
//     repeatedly branching on the order of the earliest resource conflict.
//
// Both engines are exact, so exact.Synthesize provides an independent
// cross-check of the MILP results (and is much faster on the paper's
// examples, whose MILPs took hours on 1991 hardware).
package exact

import (
	"context"
	"fmt"
	"math"
	"time"

	"sos/internal/arch"
	"sos/internal/budget"
	"sos/internal/schedule"
	"sos/internal/taskgraph"
	"sos/internal/telemetry"
)

// incumbentTol is the relative strict-improvement slack used in every
// incumbent comparison. Comparisons are of the form
// v >= relCut(best, incumbentTol): a candidate must beat the incumbent by
// more than incumbentTol*max(1, |best|) to count as an improvement, so the
// slack keeps its meaning at any objective magnitude (an absolute 1e-9 is
// below one float64 ULP once |best| exceeds ~2^23).
const incumbentTol = 1e-9

// relCut returns best - tol*max(1, |best|), the scale-aware pruning cutoff.
// Infinite bounds pass through unchanged: Inf - tol*Inf is NaN, and a NaN
// cutoff makes every comparison false, silently disabling the prune.
func relCut(best, tol float64) float64 {
	if math.IsInf(best, 0) {
		return best
	}
	return best - tol*math.Max(1, math.Abs(best))
}

// relPad is the mirror of relCut: best + tol*max(1, |best|), used where a
// candidate tied with the incumbent should still be admitted (tie-breaking
// on a secondary criterion).
func relPad(best, tol float64) float64 {
	if math.IsInf(best, 0) {
		return best
	}
	return best + tol*math.Max(1, math.Abs(best))
}

// Objective selects the optimization mode.
type Objective int

// Objectives.
const (
	// MinMakespan minimizes T_F subject to Options.CostCap.
	MinMakespan Objective = iota
	// MinCost minimizes system cost subject to Options.Deadline.
	MinCost
)

// Options configures a synthesis search.
type Options struct {
	Objective Objective
	CostCap   float64 // MinMakespan: total cost bound (0 = uncapped)
	Deadline  float64 // MinCost: makespan bound (required)

	// TimeLimit caps wall time (0 = unlimited). When hit, the best
	// incumbent is returned with Optimal=false.
	TimeLimit time.Duration
	// MaxNodes caps outer mapping nodes (0 = unlimited).
	MaxNodes int
	// NoSymmetry disables same-type instance canonicalization (it is
	// always disabled under ring topologies, where instance position
	// matters).
	NoSymmetry bool
	// NoOverlapIO enables the §5 variant without I/O modules: a remote
	// transfer occupies both endpoint processors in addition to its links.
	NoOverlapIO bool

	// Warm, when non-nil, seeds the search with a known-feasible design as
	// the initial incumbent, so bound pruning starts tight immediately.
	// The cross-request cache injects near-miss hits here, and a frontier
	// point's lexicographic tightening solve its own optimum. The design is
	// untrusted: it must reference this exact problem (same graph and pool
	// objects, same topology), validate, and satisfy the cap/deadline, or
	// it is silently ignored. Seeding never affects optimality — pruning
	// is value-based, so an exhausted search still proves its answer.
	Warm *schedule.Design

	// OnIncumbent, when non-nil, is called on the searching goroutine
	// with each installed improving incumbent (design, cost), in order of
	// improvement — the cross-engine bus publish point for portfolio
	// racing. The callback must not call back into the search.
	OnIncumbent func(d *schedule.Design, cost float64)
	// Foreign, when non-nil, is polled at the budget-check cadence for
	// incumbents produced outside this search (another engine in a race).
	// seen is the last version observed by this search goroutine; the
	// function returns a candidate design, the current version, and
	// whether the candidate is new. Candidates are NOT trusted: each is
	// vetted exactly like Warm (same problem objects, independent
	// validation, inside the cap/deadline) and adopted only if strictly
	// improving, so a bad publish can never corrupt a proof. Must be safe
	// for concurrent calls.
	Foreign func(seen uint64) (*schedule.Design, uint64, bool)

	// Telemetry, when non-nil, receives search counters (mapping nodes,
	// scheduling nodes, incumbents) and incumbent trace events. Node counts
	// are accumulated locally and folded in when the search finishes, so
	// the hot DFS loop never touches the shared collector.
	Telemetry *telemetry.Collector

	// testHook, when non-nil, is called once per outer mapping node with
	// the node count so far; it may panic to simulate a crash.
	// Settable only from in-package fault-injection tests.
	testHook func(nodes int)
}

// Result is the outcome of a synthesis search.
type Result struct {
	Design  *schedule.Design // nil if nothing feasible found
	Optimal bool             // true when the search space was exhausted
	Nodes   int              // outer mapping nodes explored
	Sched   int              // inner scheduling B&B nodes explored

	// Anytime certificate.
	Status budget.Status
	Bound  float64 // proven lower bound on the objective (root LB, or the optimum)
	Gap    float64 // |obj-Bound| relative gap; 0 when proven optimal
}

// Synthesize runs the exact search.
func Synthesize(ctx context.Context, g *taskgraph.Graph, pool *arch.Instances, topo arch.Topology, opts Options) (*Result, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if err := pool.Library().Validate(g); err != nil {
		return nil, err
	}
	if opts.Objective == MinCost && opts.Deadline <= 0 {
		return nil, errMinCostNeedsDeadline
	}
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	s := newSearch(g, pool, topo, opts, order)
	if opts.TimeLimit > 0 {
		s.deadline = time.Now().Add(opts.TimeLimit)
	}
	s.ctx = ctx
	rootLB := s.rootBound()

	if w := opts.Warm; w != nil && warmUsable(w, g, pool, topo, opts) {
		s.accept(w, w.Cost)
	}

	if err := s.runDFS(0); err != nil {
		return nil, err
	}

	objVal := 0.0
	if s.best != nil {
		if opts.Objective == MinMakespan {
			objVal = s.best.Makespan
		} else {
			objVal = s.bestCost
		}
	}
	tel := opts.Telemetry
	tel.Add(telemetry.CtrMapNodes, int64(s.nodes))
	tel.Add(telemetry.CtrSchedNodes, int64(s.schedNodes))
	return finishResult(ctx, s.best, objVal, !s.budgetHit, rootLB, s.nodes, s.schedNodes), nil
}

// warmUsable vets an untrusted warm incumbent: it must belong to this
// exact problem instance, pass the independent schedule validator, and
// sit inside the requested bound. Anything less is dropped — a bad seed
// must never be able to corrupt a proof.
func warmUsable(w *schedule.Design, g *taskgraph.Graph, pool *arch.Instances, topo arch.Topology, opts Options) bool {
	const eps = 1e-9
	if w.Graph != g || w.Pool != pool || w.Topo != topo {
		return false
	}
	if err := w.Validate(&schedule.ValidateOptions{NoOverlapIO: opts.NoOverlapIO}); err != nil {
		return false
	}
	if opts.Objective == MinMakespan {
		return opts.CostCap <= 0 || w.Cost <= opts.CostCap+eps
	}
	return w.Makespan <= opts.Deadline+eps
}

// runDFS runs the mapping DFS from index start, converting a panic anywhere
// in the search (scheduler included) into an error instead of killing the
// caller.
func (s *search) runDFS(start int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("exact: search %w: %v", budget.ErrPanic, r)
		}
	}()
	s.dfs(start)
	return nil
}

// rootBound computes the objective lower bound of the empty mapping, valid
// for every design the search could return: for MinMakespan the
// communication-free critical path over best-case durations (plus
// per-processor load, vacuous here); for MinCost the cheapest capable
// instance of the priciest subtask — some instance must host it, and one
// instance may host everything, so the max over subtasks is sound.
func (s *search) rootBound() float64 {
	if s.opts.Objective == MinMakespan {
		return s.makespanLB()
	}
	lb := 0.0
	for _, t := range s.g.Subtasks() {
		best := math.Inf(1)
		for _, d := range s.pool.Capable(t.ID) {
			if c := s.pool.Cost(d); c < best {
				best = c
			}
		}
		if !math.IsInf(best, 1) && best > lb {
			lb = best
		}
	}
	return lb
}

// finishResult assembles the anytime certificate. exhausted means the
// whole space was searched; objVal is the incumbent's objective value
// (makespan or cost).
func finishResult(ctx context.Context, d *schedule.Design, objVal float64, exhausted bool, rootLB float64, nodes, sched int) *Result {
	res := &Result{Design: d, Optimal: exhausted, Nodes: nodes, Sched: sched, Bound: rootLB}
	switch {
	case exhausted && d != nil:
		res.Status = budget.StatusOptimal
		res.Bound = objVal
	case exhausted:
		res.Status = budget.StatusInfeasible
	case d != nil:
		res.Status = budget.StatusFeasible
		res.Gap = math.Abs(objVal-rootLB) / math.Max(1, math.Abs(objVal))
	case ctx != nil && ctx.Err() != nil:
		res.Status = budget.StatusCanceled
	default:
		res.Status = budget.StatusBudgetExhausted
	}
	return res
}

var errMinCostNeedsDeadline = fmt.Errorf("exact: MinCost requires a positive Deadline")

// newSearch builds the search state for one DFS, with every buffer the
// node loop needs.
func newSearch(g *taskgraph.Graph, pool *arch.Instances, topo arch.Topology, opts Options, order []taskgraph.SubtaskID) *search {
	_, isRing := topo.(arch.Ring)
	nT, n := g.NumSubtasks(), pool.NumProcs()
	paths := newPathTable(topo, n)
	s := &search{
		g:          g,
		pool:       pool,
		topo:       topo,
		opts:       opts,
		order:      order,
		mapping:    make([]arch.ProcID, nT),
		typeOf:     make([]arch.TypeID, n),
		symmetry:   !opts.NoSymmetry && !isRing,
		bestPerf:   math.Inf(1),
		bestCost:   math.Inf(1),
		dur:        make([]float64, nT),
		finish:     make([]float64, nT),
		load:       make([]float64, n),
		procUsed:   make([]bool, n),
		typeOpened: make([]bool, pool.Library().NumTypes()),
		linkUsed:   make([]bool, topo.NumLinks(n)),
		cands:      make([][]arch.ProcID, len(order)),
		paths:      paths,
		dg:         newDisjGraph(g, pool, topo, paths, opts.NoOverlapIO),
	}
	for i := range s.mapping {
		s.mapping[i] = -1
	}
	for _, p := range pool.Procs() {
		s.typeOf[p.ID] = p.Type
	}
	s.minDur = make([]float64, nT)
	for _, t := range g.Subtasks() {
		best := math.Inf(1)
		for _, d := range pool.Capable(t.ID) {
			if e := pool.Exec(d, t.ID); e < best {
				best = e
			}
		}
		s.minDur[t.ID] = best
	}
	return s
}

type search struct {
	g    *taskgraph.Graph
	pool *arch.Instances
	topo arch.Topology
	opts Options
	ctx  context.Context

	order    []taskgraph.SubtaskID
	mapping  []arch.ProcID
	typeOf   []arch.TypeID
	minDur   []float64
	symmetry bool
	deadline time.Time

	nodes       int
	schedNodes  int
	budgetHit   bool
	foreignSeen uint64 // last Options.Foreign version observed

	// The incumbent and its pruning bounds.
	best     *schedule.Design
	bestPerf float64
	bestCost float64

	// Scratch of the node loop, allocated once per search.
	dur, finish []float64       // makespanLB's durations and finish times, per subtask
	load        []float64       // makespanLB's committed load, per instance
	procUsed    []bool          // per instance
	typeOpened  []bool          // per type
	linkUsed    []bool          // per link
	cands       [][]arch.ProcID // candidates' output, per DFS depth
	paths       *pathTable
	dg          *disjGraph // the leaf scheduler's workspace
}

// accept installs an improving design, records it with the collector, and
// publishes it to the cross-engine bus when one is attached.
func (s *search) accept(d *schedule.Design, cost float64) {
	s.best, s.bestPerf, s.bestCost = d, d.Makespan, cost
	if s.opts.OnIncumbent != nil {
		s.opts.OnIncumbent(d, cost)
	}
	tel := s.opts.Telemetry
	if tel == nil {
		return
	}
	obj := d.Makespan
	if s.opts.Objective == MinCost {
		obj = cost
	}
	tel.Inc(telemetry.CtrIncumbents)
	tel.Emit(telemetry.EvIncumbent, obj, "exact")
}

// overBudget checks node/time/context budgets.
func (s *search) overBudget() bool {
	if s.budgetHit {
		return true
	}
	if s.opts.MaxNodes > 0 && s.nodes >= s.opts.MaxNodes {
		s.budgetHit = true
	}
	if !s.deadline.IsZero() && s.nodes%64 == 0 && time.Now().After(s.deadline) {
		s.budgetHit = true
	}
	if s.ctx != nil && s.nodes%64 == 0 && s.ctx.Err() != nil {
		s.budgetHit = true
	}
	if s.opts.Foreign != nil && s.nodes%64 == 0 {
		s.adoptForeign()
	}
	return s.budgetHit
}

// adoptForeign polls the cross-engine bus and installs its candidate as
// the incumbent if it passes the same vet as a Warm seed and strictly
// improves the current bound. Vetting keeps proofs sound: a foreign
// design only ever tightens pruning with a value the search could have
// found itself.
func (s *search) adoptForeign() {
	d, v, ok := s.opts.Foreign(s.foreignSeen)
	if !ok {
		return
	}
	s.foreignSeen = v
	if !warmUsable(d, s.g, s.pool, s.topo, s.opts) {
		return
	}
	if s.opts.Objective == MinMakespan {
		if d.Makespan >= s.bestPerf {
			return
		}
	} else if d.Cost >= s.bestCost {
		return
	}
	s.accept(d, d.Cost)
}

// makespanLB is a valid lower bound on the makespan of any completion of
// the partial mapping: the critical path using actual durations where
// assigned and best-case durations elsewhere, and the per-processor
// committed load. An arc whose two ends are both mapped adds its transfer
// time to its precedence term, weighed as disjGraph.reset weighs the
// transfer edge; an arc with an unmapped end is free. The disjunctive
// graph forces tStart(dst) ≥ tStart(src) + f_A·dur(src) + xfd − f_R·dur(dst)
// and resource conflicts only delay, so the bound holds.
func (s *search) makespanLB() float64 {
	g, dur, finish, load := s.g, s.dur, s.finish, s.load
	lib, n := s.pool.Library(), s.pool.NumProcs()
	clear(load)
	for a, d := range s.mapping {
		if d < 0 {
			dur[a] = s.minDur[a]
			continue
		}
		dur[a] = s.pool.Exec(d, taskgraph.SubtaskID(a))
		load[d] += dur[a]
	}
	// The critical path as taskgraph.CriticalPath computes it, over the
	// search's own topological order, plus the mapped arcs' transfers.
	lb := 0.0
	for _, v := range s.order {
		start := 0.0
		d2 := s.mapping[v]
		for _, aid := range g.In(v) {
			a := g.Arc(aid)
			req := finish[a.Src] - (1-a.FA)*dur[a.Src]
			if d1 := s.mapping[a.Src]; d1 >= 0 && d2 >= 0 {
				req += unitDelay(lib, s.topo, n, d1, d2) * a.Volume
			}
			if req -= a.FR * dur[v]; req > start {
				start = req
			}
		}
		finish[v] = start + dur[v]
		if finish[v] > lb {
			lb = finish[v]
		}
	}
	for _, l := range load {
		if l > lb {
			lb = l
		}
	}
	return lb
}

// dfs assigns the idx-th subtask in topological order.
func (s *search) dfs(idx int) {
	if s.overBudget() {
		return
	}
	s.nodes++
	if s.opts.testHook != nil {
		s.opts.testHook(s.nodes)
	}
	full := idx == len(s.order)
	cost := 0.0
	if s.opts.Objective == MinMakespan {
		if s.makespanLB() >= relCut(s.bestPerf, incumbentTol) {
			return
		}
		if s.opts.CostCap > 0 || full {
			cost = s.mappedCost()
		}
		// Constraint feasibility (not incumbent-relative): absolute slack.
		if s.opts.CostCap > 0 && cost > s.opts.CostCap+1e-9 {
			return
		}
	} else {
		if cost = s.mappedCost(); cost >= relCut(s.bestCost, incumbentTol) {
			return
		}
		if s.makespanLB() > s.opts.Deadline+1e-9 {
			return
		}
	}
	if full {
		s.leaf(cost)
		return
	}
	task := s.order[idx]
	for _, d := range s.candidates(idx, task) {
		s.mapping[task] = d
		s.dfs(idx + 1)
		s.mapping[task] = -1
		if s.budgetHit {
			return
		}
	}
}

// candidates returns the instances to try for the task at DFS depth idx,
// applying the symmetry rule: among the unused instances of a type, only
// the lowest-numbered copy may be opened. The list is written into the
// depth's own buffer, which the caller iterates while deeper calls fill
// theirs.
func (s *search) candidates(idx int, task taskgraph.SubtaskID) []arch.ProcID {
	capable := s.pool.Capable(task)
	if !s.symmetry {
		return capable
	}
	used, opened := s.procUsed, s.typeOpened
	clear(used)
	clear(opened)
	for _, d := range s.mapping {
		if d >= 0 {
			used[d] = true
		}
	}
	out := s.cands[idx][:0]
	// capable is ascending, and within a type instance IDs ascend, so the
	// first unused copy of each type encountered is the lowest-numbered.
	for _, d := range capable {
		if used[d] {
			out = append(out, d)
			continue
		}
		t := s.typeOf[d]
		if opened[t] {
			continue
		}
		opened[t] = true
		out = append(out, d)
	}
	s.cands[idx] = out
	return out
}

// leaf runs the inner scheduling B&B on a complete mapping whose system
// cost, already within the cap or below the incumbent's, is cost.
func (s *search) leaf(cost float64) {
	switch s.opts.Objective {
	case MinMakespan:
		// Accept a strictly faster schedule, or an equally fast one that
		// is cheaper (so the returned design is non-inferior at its own
		// performance level).
		bp, bc := s.bestPerf, s.bestCost
		cut := relCut(bp, incumbentTol)
		if cost < relCut(bc, incumbentTol) {
			cut = relPad(bp, incumbentTol)
		}
		d, nodes := s.dg.schedule(s.mapping, cut, &s.budgetHit, s.deadline)
		s.schedNodes += nodes
		if d == nil {
			return
		}
		if d.Makespan < relCut(bp, incumbentTol) || cost < relCut(bc, incumbentTol) {
			s.accept(d, cost)
		}
	case MinCost:
		d, nodes := s.dg.schedule(s.mapping, s.opts.Deadline+1e-6, &s.budgetHit, s.deadline)
		s.schedNodes += nodes
		if d == nil || d.Makespan > s.opts.Deadline+1e-9 {
			return
		}
		s.accept(d, cost)
	}
}

// mappedCost is a lower bound on the system cost of any completion of the
// partial mapping, and at a full mapping the system cost itself: the used
// instances (deduplicated, in subtask order), then the links of every
// remote arc whose two ends are mapped (deduplicated, in arc order), then
// the memory term, if priced, which does not depend on the mapping. Both
// sets only grow as the mapping grows, so the bound holds.
func (s *search) mappedCost() float64 {
	lib := s.pool.Library()
	used, links := s.procUsed, s.linkUsed
	clear(used)
	clear(links)
	cost := 0.0
	for _, d := range s.mapping {
		if d >= 0 && !used[d] {
			used[d] = true
			cost += s.pool.Cost(d)
		}
	}
	for _, a := range s.g.Arcs() {
		d1, d2 := s.mapping[a.Src], s.mapping[a.Dst]
		if d1 < 0 || d2 < 0 || d1 == d2 {
			continue
		}
		for _, l := range s.paths.path(d1, d2) {
			if !links[l] {
				links[l] = true
				cost += s.topo.LinkCost(lib, l)
			}
		}
	}
	if lib.MemCostPerUnit > 0 {
		for _, t := range s.g.Subtasks() {
			cost += lib.MemCostPerUnit * t.Mem
		}
	}
	return cost
}
