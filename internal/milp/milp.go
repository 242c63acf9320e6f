// Package milp implements a branch-and-bound solver for mixed
// integer-linear programs on top of the internal/lp simplex. It plays the
// role of the Bozo program (Hafer & Hutchings, SFU TR 90-2) that the SOS
// paper used to solve its synthesis models.
//
// The solver relaxes integrality, solves the LP at each node, and branches
// on the most fractional integer column by splitting its bound interval.
// Open nodes sit on a stack and are explored depth-first, to find
// incumbents fast; both children of a node carry the node's LP objective
// as their bound, and a popped node whose bound cannot beat the incumbent
// is pruned unsolved. A warm-start incumbent (e.g. from a heuristic
// schedule) can be supplied to tighten pruning from the first node.
//
// Every node LP is solved through one lp.Resolver per solve, which carries
// the node throughput: one persistent tableau, re-optimized by dual
// simplex after each node's bound changes instead of being rebuilt and
// run through two phases cold. Each Solve searches on its caller's
// goroutine; concurrency comes from running several solves at once (a
// portfolio race, sosd's workers), never from inside one.
package milp

import (
	"context"
	"fmt"
	"math"
	"time"

	"sos/internal/budget"
	"sos/internal/lp"
	"sos/internal/telemetry"
)

// Status is the outcome of a MILP solve.
type Status int

// Solve outcomes.
const (
	// Optimal: proven optimal integer solution found.
	Optimal Status = iota
	// Feasible: an integer solution was found but the search hit a budget
	// (time, node, or context cancellation) before proving optimality.
	Feasible
	// Infeasible: proven that no integer solution exists.
	Infeasible
	// Unbounded: the relaxation is unbounded below.
	Unbounded
	// NoSolution: budget exhausted before any integer solution was found.
	NoSolution
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Feasible:
		return "feasible"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case NoSolution:
		return "no-solution"
	}
	return "unknown"
}

// Solution is the result of a Solve.
type Solution struct {
	Status Status
	Obj    float64
	X      []float64 // indexed by lp.ColID; integer columns are integral
	Nodes  int       // branch-and-bound nodes explored
	Bound  float64   // best proven lower bound on the optimum
	Gap    float64   // |Obj-Bound| relative gap (0 when Optimal)
	Cuts   int       // cutting planes appended at the root (Options.RootCuts)
	// LPStats counts how node relaxations were solved (warm vs cold),
	// including the root cut loop's solves of the final problem, which
	// share the search's resolver.
	LPStats lp.ResolveStats
}

// Hooks are failpoint injection points for fault testing; nil in
// production. They let tests crash the search mid-solve, cancel between
// nodes, or force degraded LP exits without reaching into solver internals.
type Hooks struct {
	// OnNode is called once per branch-and-bound node, right after the node
	// is counted, with the node count so far. It may panic to simulate a
	// crash; the solve converts the panic to an error.
	OnNode func(nodes int)

	// LP injects failpoints into every node relaxation solve.
	LP *lp.Hooks
}

// Options tunes the search. The zero value gives exact defaults.
type Options struct {
	// MaxNodes caps explored nodes (0 = unlimited).
	MaxNodes int
	// TimeLimit caps wall time (0 = unlimited).
	TimeLimit time.Duration
	// Incumbent, when non-nil, provides a known integer-feasible solution
	// used as the initial upper bound. Its objective is recomputed from
	// the problem; it is trusted to be feasible.
	Incumbent []float64
	// IncumbentPool provides additional candidate warm starts that are
	// NOT trusted: each is checked against the problem's rows, bounds,
	// and integrality before use, and the best feasible one (if it beats
	// Incumbent) becomes the initial upper bound. Sweeps use this to
	// share designs across cost caps — a design found at one cap is
	// feasible at every looser cap and silently rejected at tighter ones.
	IncumbentPool [][]float64
	// LP passes options through to the LP relaxation solves.
	LP *lp.Options
	// OnIncumbent, when non-nil, is called on the solving goroutine with
	// each strictly improving integer solution found (objective, values),
	// in order of improvement; the callback must not call back into the
	// solver.
	OnIncumbent func(obj float64, x []float64)
	// Foreign, when non-nil, is polled at the budget-check cadence for
	// incumbents produced outside this solve — another engine in a
	// portfolio race publishing to a shared bus. seen is the last bus
	// version this solve observed; the function returns a candidate
	// vector, the current version, and whether the candidate is new.
	// Candidates are NOT trusted: each is vetted against rows, bounds,
	// and integrality exactly like an IncumbentPool entry, and adopted
	// only if strictly improving. The function is called on the solving
	// goroutine while other engines publish, so its source must be safe
	// for concurrent use.
	Foreign func(seen uint64) (x []float64, version uint64, ok bool)
	// RootCuts enables cover-cut generation at the root: knapsack rows
	// (≤ rows over binary columns, such as the SOS cost-cap row) are
	// separated against the fractional root relaxation and violated cover
	// inequalities are appended before the tree search starts. The search
	// then runs on the tightened clone; the caller's Problem is not
	// mutated.
	RootCuts bool
	// Hooks injects failpoints for fault testing; nil in production.
	Hooks *Hooks
	// Telemetry, when non-nil, aggregates search counters (node
	// expand/prune, incumbents, LP warm/cold) and emits trace events when a
	// sink is attached. Node counters aggregate locally and fold in when
	// the search ends, so a collector shared by concurrent solves is not
	// touched per node; events are emitted as they happen. Nil (the
	// default) costs one pointer check per node.
	Telemetry *telemetry.Collector
}

// intTol is the integrality tolerance: an integer column within it of an
// integer counts as integral.
const intTol = 1e-6

// Solver carries a problem plus the set of integer-constrained columns.
type Solver struct {
	prob    *lp.Problem
	integer []lp.ColID
	isInt   map[lp.ColID]bool
}

// New creates a solver for prob where the given columns must take integer
// values within their bounds. (For SOS models these are all binary: bounds
// [0,1].)
func New(prob *lp.Problem, integerCols []lp.ColID) *Solver {
	isInt := make(map[lp.ColID]bool, len(integerCols))
	for _, c := range integerCols {
		isInt[c] = true
	}
	return &Solver{prob: prob, integer: append([]lp.ColID(nil), integerCols...), isInt: isInt}
}

// node is one open branch-and-bound subproblem: a set of tightened bounds.
type node struct {
	bounds map[lp.ColID][2]float64
	bound  float64 // parent LP objective (lower bound for this node)
}

// budgetStride amortizes time.Now and Foreign polling: the search only
// checks the wall clock and the foreign-incumbent source every
// budgetStride processed nodes. Cancellation, node and incumbent pruning
// stay per-node, so a canceled solve — a race's loser — stops within one
// node.
const budgetStride = 64

// bbState is the search state of one Solve call: incumbent, root
// information, reduced-cost fixings, the open-node stack with its
// warm-start LP resolver, and budget flags.
type bbState struct {
	s        *Solver
	opts     *Options
	ctx      context.Context
	deadline time.Time

	best  float64 // incumbent objective (+Inf before the first)
	bestX []float64

	// Root facts, written once when the root is expanded and read-only
	// afterwards.
	rootDone      bool
	rootUnbounded bool
	rootBound     float64
	rootRC        []float64

	// fixed holds the reduced-cost fixings proven so far; refix extends it
	// on incumbent improvement.
	fixed map[lp.ColID][2]float64

	res  *lp.Resolver
	open []*node // depth-first stack: the last node is expanded next

	nodes       int
	stop        bool   // budget exhausted: halt the search
	unproven    bool   // optimality can no longer be claimed
	cutsAdded   int    // root cutting planes
	foreignSeen uint64 // last Options.Foreign version observed

	nExpand, nPrune int64 // telemetry aggregation
}

// pruneTol is the relative optimality slack used when cutting nodes
// against the incumbent. Warm-started LP bounds carry round-off on the
// order of 1e-8·|obj|, so the seed's absolute 1e-9 margin would let every
// node that exactly ties the incumbent (common under the degenerate
// makespan objectives here) escape the prune and be searched in full,
// while on large-magnitude objectives an absolute margin is swamped by
// scale-proportional drift and can cut an improving subtree. 1e-6
// relative absorbs the drift at every scale while staying far below any
// real objective difference.
const pruneTol = 1e-6

// improveTol is the relative margin an incumbent must beat the current
// best by to be installed (strict improvement up to solver noise).
const improveTol = 1e-9

// relCut returns best minus a margin of tol scaled by max(1, |best|): the
// scale-aware threshold for "cannot meaningfully improve on best". An
// infinite best passes through unchanged (Inf - tol·Inf would be NaN and
// poison every comparison).
func relCut(best, tol float64) float64 {
	if math.IsInf(best, 0) {
		return best
	}
	return best - tol*math.Max(1, math.Abs(best))
}

// cutoff is the incumbent prune threshold: a node whose bound reaches it
// cannot improve the incumbent by more than solver noise.
func cutoff(best float64) float64 { return relCut(best, pruneTol) }

// offer installs a strictly improving incumbent (x must be owned by the
// caller and integral) and refreshes reduced-cost fixings.
func (st *bbState) offer(x []float64, obj float64) {
	if obj >= relCut(st.best, improveTol) {
		return
	}
	st.best = obj
	st.bestX = x
	st.refix()
	tel := st.opts.Telemetry
	tel.Inc(telemetry.CtrIncumbents)
	tel.Emit(telemetry.EvIncumbent, obj, "")
	if st.opts.OnIncumbent != nil {
		st.opts.OnIncumbent(obj, x)
	}
}

// refix extends the reduced-cost fixings from the root reduced costs and
// the current incumbent. A nonbasic binary whose root reduced cost exceeds
// the optimality gap cannot change value in any improving solution, so
// fixing it globally is sound for the incumbent objective used to derive
// it (and stays sound as the incumbent only improves).
func (st *bbState) refix() {
	if st.rootRC == nil || math.IsInf(st.best, 1) || math.IsInf(st.rootBound, -1) {
		return
	}
	gap := st.best - st.rootBound - pruneTol*math.Max(1, math.Abs(st.best))
	for _, c := range st.s.integer {
		if _, done := st.fixed[c]; done {
			continue
		}
		col := st.s.prob.Col(c)
		rc := st.rootRC[c]
		switch {
		case rc > gap && col.Ub-col.Lb >= 1:
			// Nonbasic at lb with rc > gap: raising it by one unit already
			// exceeds the incumbent; symmetric at ub.
			st.fixed[c] = [2]float64{col.Lb, col.Lb}
		case -rc > gap && col.Ub-col.Lb >= 1:
			st.fixed[c] = [2]float64{col.Ub, col.Ub}
		}
	}
}

// result assembles the Solution after the search ends.
func (st *bbState) result() *Solution {
	res := &Solution{Nodes: st.nodes, Cuts: st.cutsAdded, LPStats: st.res.Stats()}
	if st.rootUnbounded {
		res.Status = Unbounded
		res.Obj = math.Inf(-1)
		return res
	}
	best := st.best
	budgetHit := st.stop || st.unproven
	res.Bound = st.rootBound
	switch {
	case st.bestX != nil && !budgetHit:
		res.Status = Optimal
		res.Obj = best
		res.X = st.bestX
		res.Bound = best
	case st.bestX != nil:
		res.Status = Feasible
		res.Obj = best
		res.X = st.bestX
		if !math.IsInf(st.rootBound, -1) && best != 0 {
			res.Gap = math.Abs(best-st.rootBound) / math.Max(1, math.Abs(best))
		}
	case budgetHit:
		res.Status = NoSolution
		res.Obj = math.Inf(1)
	default:
		res.Status = Infeasible
		res.Obj = math.Inf(1)
	}
	return res
}

func (st *bbState) lpOpts() *lp.Options {
	// Deadline and Done let an oversized node relaxation be interrupted by
	// the MILP TimeLimit or the search's context instead of running to
	// completion; the kernel returns IterLimit, which expand() already
	// treats as "bound untrusted".
	o := &lp.Options{
		Telemetry: st.opts.Telemetry,
		Deadline:  st.deadline,
		Done:      st.ctx.Done(),
	}
	if st.opts.LP != nil {
		o.Kernel = st.opts.LP.Kernel
		o.Presolve = st.opts.LP.Presolve
	}
	if st.opts.Hooks != nil {
		o.Hooks = st.opts.Hooks.LP
	}
	return o
}

// checkBudget reports whether the search must halt. Wall-clock polling
// is amortized over budgetStride nodes; node-count, context and stop
// checks are per-call.
func (st *bbState) checkBudget() bool {
	if st.stop {
		return true
	}
	if (st.opts.MaxNodes > 0 && st.nodes >= st.opts.MaxNodes) || st.ctx.Err() != nil {
		st.stop, st.unproven = true, true
		return true
	}
	if st.nodes%budgetStride == 0 {
		if !st.deadline.IsZero() && time.Now().After(st.deadline) {
			st.stop, st.unproven = true, true
			return true
		}
		if f := st.opts.Foreign; f != nil {
			if cand, v, ok := f(st.foreignSeen); ok {
				st.foreignSeen = v
				st.adoptForeign(cand)
			}
		}
	}
	return false
}

// adoptForeign vets one untrusted cross-engine candidate and installs it
// as the incumbent if it is feasible, integral, and strictly improving.
// The vet is identical to IncumbentPool's; the copy keeps the caller's
// slice out of the search state.
func (st *bbState) adoptForeign(cand []float64) {
	s := st.s
	if len(cand) != s.prob.NumCols() || !s.checkFeasible(cand) {
		return
	}
	if obj := s.objOf(cand); obj < relCut(st.best, improveTol) {
		st.offer(append([]float64(nil), cand...), obj)
	}
}

// search drains the node stack from the root, converting a panic anywhere
// in the search (real bug or injected fault) into an error instead of
// killing the caller. Node counters fold into the collector on every
// exit.
func (st *bbState) search() (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("milp: worker %w: %v", budget.ErrPanic, r)
		}
		tel := st.opts.Telemetry
		tel.Add(telemetry.CtrNodesExpanded, st.nExpand)
		tel.Add(telemetry.CtrNodesPruned, st.nPrune)
	}()
	st.open = append(st.open, &node{bounds: map[lp.ColID][2]float64{}, bound: math.Inf(-1)})
	for len(st.open) > 0 {
		if st.checkBudget() {
			break
		}
		nd := st.open[len(st.open)-1]
		st.open = st.open[:len(st.open)-1]
		st.expand(nd)
	}
	return nil
}

// expand solves one node's relaxation and branches.
func (st *bbState) expand(nd *node) {
	tel := st.opts.Telemetry
	if nd.bound >= cutoff(st.best) && !math.IsInf(nd.bound, -1) {
		st.nPrune++
		tel.Emit(telemetry.EvNodePrune, nd.bound, "")
		return // pruned by incumbent
	}
	st.nodes++
	st.nExpand++
	tel.Emit(telemetry.EvNodeExpand, nd.bound, "")
	if h := st.opts.Hooks; h != nil && h.OnNode != nil {
		h.OnNode(st.nodes)
	}

	bounds := nd.bounds
	if len(st.fixed) > 0 {
		bounds = cloneBounds(nd.bounds)
		// Globally-proven fixings win: a subtree contradicting one
		// contains no improving solution, so collapsing it is sound.
		for c, b := range st.fixed {
			bounds[c] = b
		}
	}
	sol := st.res.Solve(bounds)
	isRoot := !st.rootDone
	switch sol.Status {
	case lp.Infeasible:
		if isRoot {
			st.rootDone = true
		}
		return
	case lp.Unbounded:
		if isRoot {
			st.rootDone = true
			st.rootUnbounded = true
			st.stop = true
		}
		return // below the root: should not happen; treat as cut off
	case lp.IterLimit:
		// Conservative: cannot trust the bound. Drop the subtree and
		// record that optimality can no longer be proven.
		st.unproven = true
		return
	}
	if isRoot {
		st.rootDone = true
		st.rootBound = sol.Obj
		st.rootRC = append([]float64(nil), sol.ReducedCosts...)
		st.refix()
	}
	if sol.Obj >= cutoff(st.best) {
		return // bound-dominated
	}

	col := st.s.mostFractional(sol.X)
	if col < 0 {
		// Integer feasible.
		x := st.s.roundIntegers(sol.X)
		st.offer(x, st.s.objOf(x))
		return
	}

	// Branch on the chosen column: floor side and ceil side.
	v := sol.X[col]
	lo, hi := st.s.colBounds(nd, col)
	fl := math.Floor(v + intTol)
	down := &node{bounds: cloneBounds(nd.bounds), bound: sol.Obj}
	down.bounds[col] = [2]float64{lo, fl}
	up := &node{bounds: cloneBounds(nd.bounds), bound: sol.Obj}
	up.bounds[col] = [2]float64{fl + 1, hi}

	// The child pushed last is expanded next, and it is the side farther
	// from the LP value: x ≥ ⌊v⌋+1 when v's fractional part is at most
	// 0.5 (at v = 0.3, x ≥ 1 first), x ≤ ⌊v⌋ otherwise.
	if v-fl > 0.5 {
		st.open = append(st.open, up, down)
	} else {
		st.open = append(st.open, down, up)
	}
}

// Solve runs branch and bound. The context may cancel the search early; a
// Feasible (or NoSolution) result is returned in that case.
func (s *Solver) Solve(ctx context.Context, opts *Options) (*Solution, error) {
	if opts == nil {
		opts = &Options{}
	}
	if err := s.prob.Validate(); err != nil {
		return nil, err
	}
	st := &bbState{
		s:         s,
		opts:      opts,
		ctx:       ctx,
		best:      math.Inf(1),
		rootBound: math.Inf(-1),
		fixed:     map[lp.ColID][2]float64{},
	}
	if opts.TimeLimit > 0 {
		st.deadline = time.Now().Add(opts.TimeLimit)
	}
	if opts.Incumbent != nil {
		if len(opts.Incumbent) != s.prob.NumCols() {
			return nil, fmt.Errorf("milp: incumbent has %d values, problem has %d columns",
				len(opts.Incumbent), s.prob.NumCols())
		}
		st.bestX = append([]float64(nil), opts.Incumbent...)
		st.best = s.objOf(opts.Incumbent)
	}
	for _, cand := range opts.IncumbentPool {
		if len(cand) != s.prob.NumCols() || !s.checkFeasible(cand) {
			continue
		}
		if obj := s.objOf(cand); obj < st.best {
			st.bestX = append(st.bestX[:0], cand...)
			st.best = obj
		}
	}

	r, err := s.prob.NewResolver(st.lpOpts())
	if err != nil {
		return nil, err
	}
	st.res = r
	if opts.RootCuts {
		// May replace st.s and st.res with a solver and a resolver over a
		// cut-tightened clone; every path below reads them through st.
		if err := st.addRootCuts(); err != nil {
			return nil, err
		}
	}
	if err := st.search(); err != nil {
		return nil, err
	}
	return st.result(), nil
}

// colBounds returns the effective bounds of column c at node nd.
func (s *Solver) colBounds(nd *node, c lp.ColID) (float64, float64) {
	if b, ok := nd.bounds[c]; ok {
		return b[0], b[1]
	}
	col := s.prob.Col(c)
	return col.Lb, col.Ub
}

// mostFractional returns the integer column whose LP value is farthest from
// integral (the first in the solver's column order on a tie), or -1 if all
// are integral.
func (s *Solver) mostFractional(x []float64) lp.ColID {
	best := lp.ColID(-1)
	bestScore := intTol
	for _, c := range s.integer {
		v := x[c]
		f := math.Abs(v - math.Round(v))
		if f > bestScore {
			best, bestScore = c, f
		}
	}
	return best
}

// roundIntegers snaps near-integral integer columns to exact integers.
func (s *Solver) roundIntegers(x []float64) []float64 {
	out := append([]float64(nil), x...)
	for _, c := range s.integer {
		out[c] = math.Round(out[c])
	}
	return out
}

// checkFeasible reports whether x satisfies every row (within a tolerance
// scaled by the row's magnitude), every column bound, and integrality on
// the integer columns. Used to vet untrusted IncumbentPool candidates.
func (s *Solver) checkFeasible(x []float64) bool {
	const rowTol = 1e-6
	for j := 0; j < s.prob.NumCols(); j++ {
		c := s.prob.Col(lp.ColID(j))
		if x[j] < c.Lb-rowTol || x[j] > c.Ub+rowTol {
			return false
		}
	}
	for _, c := range s.integer {
		if math.Abs(x[c]-math.Round(x[c])) > intTol {
			return false
		}
	}
	for i := 0; i < s.prob.NumRows(); i++ {
		r := s.prob.Row(i)
		act := 0.0
		for _, t := range r.Terms {
			act += t.Coef * x[t.Col]
		}
		eps := rowTol * math.Max(1, math.Abs(r.Rhs))
		switch r.Sense {
		case lp.Le:
			if act > r.Rhs+eps {
				return false
			}
		case lp.Ge:
			if act < r.Rhs-eps {
				return false
			}
		default:
			if math.Abs(act-r.Rhs) > eps {
				return false
			}
		}
	}
	return true
}

// objOf evaluates the problem objective at x.
func (s *Solver) objOf(x []float64) float64 {
	obj := 0.0
	for j := 0; j < s.prob.NumCols(); j++ {
		obj += s.prob.Col(lp.ColID(j)).Obj * x[j]
	}
	return obj
}

func cloneBounds(b map[lp.ColID][2]float64) map[lp.ColID][2]float64 {
	nb := make(map[lp.ColID][2]float64, len(b)+1)
	for k, v := range b {
		nb[k] = v
	}
	return nb
}
