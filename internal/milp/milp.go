// Package milp implements a branch-and-bound solver for mixed
// integer-linear programs on top of the internal/lp simplex. It plays the
// role of the Bozo program (Hafer & Hutchings, SFU TR 90-2) that the SOS
// paper used to solve its synthesis models.
//
// The solver relaxes integrality, solves the LP at each node, and branches
// on a fractional integer variable by splitting its bound interval. Nodes
// are explored depth-first (to find incumbents fast) with best-bound
// reordering among siblings. A warm-start incumbent (e.g. from a heuristic
// schedule) can be supplied to tighten pruning from the first node.
//
// Two solver-level optimizations carry the node throughput:
//
//   - Node LPs are solved through lp.Resolver: one persistent tableau per
//     worker, re-optimized by dual simplex after each node's bound changes
//     instead of rebuilding and running two phases cold (Options.ColdLP
//     restores the old behaviour for ablation).
//   - Options.Workers > 1 fans the frontier out to a pool of workers
//     sharing an incumbent (atomic best-bound pruning), pseudo-cost
//     history, and reduced-cost fixings, in the style of
//     internal/exact.SynthesizeParallel.
package milp

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

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
	// LPStats aggregates how node relaxations were solved (warm vs cold)
	// across all workers; zero when Options.ColdLP is set.
	LPStats lp.ResolveStats
}

// Hooks are failpoint injection points for fault testing; nil in
// production. They let tests crash a worker mid-search, cancel between
// nodes, or force degraded LP exits without reaching into solver internals.
type Hooks struct {
	// OnNode is called once per branch-and-bound node, right after the node
	// is counted, with the global node count so far. It may panic to
	// simulate a worker crash; the solve converts the panic to an error.
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
	// IntTol is the integrality tolerance (default 1e-6).
	IntTol float64
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
	// OnIncumbent, when non-nil, is called with each strictly improving
	// integer solution found (objective, values). Calls are serialized and
	// strictly improving even with Workers > 1; the callback must not call
	// back into the solver.
	OnIncumbent func(obj float64, x []float64)
	// Foreign, when non-nil, is polled at the budget-check cadence for
	// incumbents produced outside this solve — another engine in a
	// portfolio race publishing to a shared bus. seen is the last bus
	// version this worker observed; the function returns a candidate
	// vector, the current version, and whether the candidate is new.
	// Candidates are NOT trusted: each is vetted against rows, bounds,
	// and integrality exactly like an IncumbentPool entry, and adopted
	// only if strictly improving. The function must be safe for
	// concurrent calls (workers poll independently).
	Foreign func(seen uint64) (x []float64, version uint64, ok bool)
	// Branch selects the branching rule (default most-fractional).
	Branch BranchRule
	// Order selects the node-selection strategy (default depth-first).
	Order NodeOrder
	// Workers sets the number of parallel search workers; 0 or 1 searches
	// sequentially. The parallel search returns the same optimal objective
	// as the sequential one (argmin may differ on ties) and the same
	// proven status on unlimited budgets.
	Workers int
	// ColdLP disables warm-started node re-solves, rebuilding the simplex
	// tableau from scratch at every node (the pre-resolver behaviour).
	// Ablation/debugging only.
	ColdLP bool
	// RootCuts enables cover-cut generation at the root: knapsack rows
	// (≤ rows over binary columns, such as the SOS cost-cap row) are
	// separated against the fractional root relaxation and violated cover
	// inequalities are appended before the tree search starts. The search
	// then runs on the tightened clone; the caller's Problem is not
	// mutated.
	RootCuts bool
	// MaxCutRounds caps root separation rounds (default 5, used when 0).
	MaxCutRounds int
	// Hooks injects failpoints for fault testing; nil in production.
	Hooks *Hooks
	// Telemetry, when non-nil, aggregates search counters (node
	// expand/prune, incumbents, LP warm/cold) and emits trace events when a
	// sink is attached. Workers aggregate locally and fold on exit, so the
	// shared collector is touched O(workers) times for counters; events are
	// emitted as they happen. Nil (the default) costs one pointer check per
	// node.
	Telemetry *telemetry.Collector
}

func (o *Options) intTol() float64 {
	if o != nil && o.IntTol > 0 {
		return o.IntTol
	}
	return 1e-6
}

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
	depth  int
	// Branching provenance, for pseudo-cost updates.
	branchCol  lp.ColID
	branchUp   bool
	branchFrac float64 // fractional part of branchCol at the parent
}

func rootNode() *node {
	return &node{bounds: map[lp.ColID][2]float64{}, bound: math.Inf(-1), branchCol: -1}
}

// budgetStride amortizes time.Now and Foreign polling: workers only check
// the wall clock and the foreign-incumbent source every budgetStride
// processed nodes. Cancellation, node and incumbent pruning stay
// per-node, so a canceled solve — a race's loser — stops within one node.
const budgetStride = 64

// bbState is the search state shared by every worker of one Solve call:
// incumbent, pseudo-costs, root information, reduced-cost fixings, and
// budget flags. All fields are safe for concurrent use as annotated.
type bbState struct {
	s        *Solver
	opts     *Options
	tol      float64
	ctx      context.Context
	deadline time.Time

	mu       sync.Mutex    // guards bestX, firstErr, refix recompute
	bestBits atomic.Uint64 // math.Float64bits of the incumbent objective
	bestX    []float64
	firstErr error

	pc *pseudoCost // internally locked

	// Root facts, written once during the sequential root expansion
	// (before any parallel worker starts) and read-only afterwards.
	rootDone      bool
	rootUnbounded bool
	rootBound     float64
	rootRC        []float64

	// fixed holds the current reduced-cost fixing snapshot as an immutable
	// map; refixLocked publishes a fresh map on incumbent improvement.
	fixed atomic.Pointer[map[lp.ColID][2]float64]

	nodes     atomic.Int64
	stop      atomic.Bool // budget exhausted: halt the search
	unproven  atomic.Bool // optimality can no longer be claimed
	cutsAdded int         // root cutting planes (written before workers start)

	lpMu    sync.Mutex
	lpStats lp.ResolveStats
}

func (st *bbState) best() float64 { return math.Float64frombits(st.bestBits.Load()) }

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
	st.mu.Lock()
	defer st.mu.Unlock()
	if obj >= relCut(st.best(), improveTol) {
		return
	}
	st.bestBits.Store(math.Float64bits(obj))
	st.bestX = x
	st.refixLocked()
	tel := st.opts.Telemetry
	tel.Inc(telemetry.CtrIncumbents)
	tel.Emit(telemetry.EvIncumbent, 0, obj, "")
	if st.opts.OnIncumbent != nil {
		st.opts.OnIncumbent(obj, x)
	}
}

// refixLocked recomputes reduced-cost fixings from the root reduced costs
// and the current incumbent, publishing an immutable snapshot. A nonbasic
// binary whose root reduced cost exceeds the optimality gap cannot change
// value in any improving solution, so fixing it globally is sound for the
// incumbent objective used to derive it (and stays sound as the incumbent
// only improves). Must hold st.mu.
func (st *bbState) refixLocked() {
	best := st.best()
	if st.rootRC == nil || math.IsInf(best, 1) || math.IsInf(st.rootBound, -1) {
		return
	}
	gap := best - st.rootBound - pruneTol*math.Max(1, math.Abs(best))
	cur := st.fixed.Load()
	var nf map[lp.ColID][2]float64
	for _, c := range st.s.integer {
		if cur != nil {
			if _, done := (*cur)[c]; done {
				continue
			}
		}
		col := st.s.prob.Col(c)
		rc := st.rootRC[c]
		var b [2]float64
		switch {
		case rc > gap && col.Ub-col.Lb >= 1:
			// Nonbasic at lb with rc > gap: raising it by one unit already
			// exceeds the incumbent; symmetric at ub.
			b = [2]float64{col.Lb, col.Lb}
		case -rc > gap && col.Ub-col.Lb >= 1:
			b = [2]float64{col.Ub, col.Ub}
		default:
			continue
		}
		if nf == nil {
			if cur != nil {
				nf = cloneBounds(*cur)
			} else {
				nf = map[lp.ColID][2]float64{}
			}
		}
		nf[c] = b
	}
	if nf != nil {
		st.fixed.Store(&nf)
	}
}

// capturePanic converts a panicking search unit into the shared
// first-error state, so a crashing worker (real bug or injected fault)
// degrades the solve into a typed error instead of killing the process.
// Must be installed with defer on every goroutine that runs search code.
func (st *bbState) capturePanic() {
	if r := recover(); r != nil {
		st.fail(fmt.Errorf("milp: worker panic: %v", r))
	}
}

func (st *bbState) fail(err error) {
	st.mu.Lock()
	if st.firstErr == nil {
		st.firstErr = err
	}
	st.mu.Unlock()
	st.stop.Store(true)
}

func (st *bbState) err() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.firstErr
}

// result assembles the Solution after the search ends.
func (st *bbState) result() *Solution {
	res := &Solution{Nodes: int(st.nodes.Load()), LPStats: st.lpStats, Cuts: st.cutsAdded}
	if st.rootUnbounded {
		res.Status = Unbounded
		res.Obj = math.Inf(-1)
		return res
	}
	best := st.best()
	budgetHit := st.stop.Load() || st.unproven.Load()
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

// bbWorker is one search unit: a frontier of open nodes plus a private
// warm-start LP resolver. Telemetry node counters accumulate locally and
// fold into the shared collector on close, so concurrent workers do not
// contend on the collector's atomics per node.
type bbWorker struct {
	st    *bbState
	id    int          // worker index, stamped on trace events
	res   *lp.Resolver // nil under Options.ColdLP
	open  *frontier
	local int64 // nodes processed by this worker (budget amortization)
	err   error

	foreignSeen uint64 // last Options.Foreign version this worker observed

	nExpand, nPrune int64 // telemetry aggregation
}

func (st *bbState) newWorker(id int) *bbWorker {
	w := &bbWorker{st: st, id: id, open: newFrontier(st.opts.Order)}
	if !st.opts.ColdLP {
		r, err := st.s.prob.NewResolver(st.lpOpts(id))
		if err != nil {
			w.err = err
			return w
		}
		w.res = r
	}
	return w
}

func (st *bbState) lpOpts(worker int) *lp.Options {
	// Deadline lets an oversized node relaxation be interrupted by the
	// MILP TimeLimit instead of running to completion; the kernel returns
	// IterLimit, which expand() already treats as "bound untrusted".
	o := &lp.Options{
		Telemetry:       st.opts.Telemetry,
		TelemetryWorker: worker,
		Deadline:        st.deadline,
	}
	if st.opts.LP != nil {
		o.MaxIters = st.opts.LP.MaxIters
		o.Eps = st.opts.LP.Eps
		o.Kernel = st.opts.LP.Kernel
		o.Presolve = st.opts.LP.Presolve
	}
	if st.opts.Hooks != nil {
		o.Hooks = st.opts.Hooks.LP
	}
	return o
}

func (w *bbWorker) solveLP(bounds map[lp.ColID][2]float64) (*lp.Solution, error) {
	if w.res != nil {
		return w.res.Solve(bounds)
	}
	o := *w.st.lpOpts(w.id)
	o.BoundOverride = bounds
	return w.st.s.prob.Solve(&o)
}

// close folds the worker's LP statistics and telemetry counters into the
// shared state (the per-worker aggregation point).
func (w *bbWorker) close() {
	tel := w.st.opts.Telemetry
	tel.Add(telemetry.CtrNodesExpanded, w.nExpand)
	tel.Add(telemetry.CtrNodesPruned, w.nPrune)
	if w.res == nil {
		return
	}
	s := w.res.Stats()
	st := w.st
	st.lpMu.Lock()
	st.lpStats.Cold += s.Cold
	st.lpStats.Warm += s.Warm
	st.lpStats.Fallbacks += s.Fallbacks
	st.lpStats.DualIters += s.DualIters
	st.lpStats.PrimalIters += s.PrimalIters
	st.lpMu.Unlock()
}

// checkBudget reports whether the search must halt. Wall-clock polling
// is amortized over budgetStride nodes; node-count, context and shared
// stop checks are per-call.
func (w *bbWorker) checkBudget() bool {
	st := w.st
	if st.stop.Load() {
		return true
	}
	if (st.opts.MaxNodes > 0 && int(st.nodes.Load()) >= st.opts.MaxNodes) || st.ctx.Err() != nil {
		st.stop.Store(true)
		st.unproven.Store(true)
		return true
	}
	if w.local%budgetStride == 0 {
		if !st.deadline.IsZero() && time.Now().After(st.deadline) {
			st.stop.Store(true)
			st.unproven.Store(true)
			return true
		}
		if f := st.opts.Foreign; f != nil {
			if cand, v, ok := f(w.foreignSeen); ok {
				w.foreignSeen = v
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
	if len(cand) != s.prob.NumCols() || !s.checkFeasible(cand, st.tol) {
		return
	}
	if obj := s.objOf(cand); obj < relCut(st.best(), improveTol) {
		st.offer(append([]float64(nil), cand...), obj)
	}
}

// run drains the worker's frontier.
func (w *bbWorker) run() {
	for w.err == nil && !w.open.empty() {
		if w.checkBudget() {
			return
		}
		w.expand(w.open.pop())
	}
}

// expand solves one node's relaxation and branches.
func (w *bbWorker) expand(nd *node) {
	st := w.st
	tel := st.opts.Telemetry
	if nd.bound >= cutoff(st.best()) && !math.IsInf(nd.bound, -1) {
		w.nPrune++
		tel.Emit(telemetry.EvNodePrune, w.id, nd.bound, "")
		return // pruned by incumbent
	}
	st.nodes.Add(1)
	w.local++
	w.nExpand++
	tel.Emit(telemetry.EvNodeExpand, w.id, nd.bound, "")
	if h := st.opts.Hooks; h != nil && h.OnNode != nil {
		h.OnNode(int(st.nodes.Load()))
	}

	bounds := nd.bounds
	if fp := st.fixed.Load(); fp != nil && len(*fp) > 0 {
		bounds = cloneBounds(nd.bounds)
		// Globally-proven fixings win: a subtree contradicting one
		// contains no improving solution, so collapsing it is sound.
		for c, b := range *fp {
			bounds[c] = b
		}
	}
	sol, err := w.solveLP(bounds)
	if err != nil {
		w.err = err
		return
	}
	isRoot := !st.rootDone
	switch sol.Status {
	case lp.Infeasible:
		st.rootDone = st.rootDone || isRoot
		return
	case lp.Unbounded:
		if isRoot {
			st.rootDone = true
			st.rootUnbounded = true
			st.stop.Store(true)
		}
		return // below the root: should not happen; treat as cut off
	case lp.IterLimit:
		// Conservative: cannot trust the bound. Drop the subtree and
		// record that optimality can no longer be proven.
		st.unproven.Store(true)
		return
	}
	if isRoot {
		st.rootDone = true
		st.rootBound = sol.Obj
		st.rootRC = append([]float64(nil), sol.ReducedCosts...)
		st.mu.Lock()
		st.refixLocked()
		st.mu.Unlock()
	}
	if nd.branchCol >= 0 && nd.branchFrac > st.tol && !math.IsInf(nd.bound, -1) {
		// Pseudo-cost bookkeeping: degradation per unit fraction.
		width := nd.branchFrac
		if nd.branchUp {
			width = 1 - nd.branchFrac
		}
		if width > st.tol {
			st.pc.observe(nd.branchCol, nd.branchUp, (sol.Obj-nd.bound)/width)
		}
	}
	if sol.Obj >= cutoff(st.best()) {
		return // bound-dominated
	}

	col := st.s.chooseBranch(st.opts.Branch, st.pc, sol.X, st.tol)
	if col < 0 {
		// Integer feasible.
		x := st.s.roundIntegers(sol.X, st.tol)
		st.offer(x, st.s.objOf(x))
		return
	}

	// Branch on the chosen column: floor side and ceil side.
	v := sol.X[col]
	lo, hi := st.s.colBounds(nd, col)
	fl := math.Floor(v + st.tol)
	f := v - fl
	down := cloneBounds(nd.bounds)
	down[col] = [2]float64{lo, fl}
	up := cloneBounds(nd.bounds)
	up[col] = [2]float64{fl + 1, hi}

	children := []*node{
		{bounds: down, bound: sol.Obj, depth: nd.depth + 1, branchCol: col, branchUp: false, branchFrac: f},
		{bounds: up, bound: sol.Obj, depth: nd.depth + 1, branchCol: col, branchUp: true, branchFrac: f},
	}
	// Depth-first explores the side nearer the fractional value first
	// (pushed last); best-first ordering is by bound, so push order
	// is irrelevant there.
	if f > 0.5 {
		children[0], children[1] = children[1], children[0]
	}
	w.open.push(children[0])
	w.open.push(children[1])
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
		tol:       opts.intTol(),
		ctx:       ctx,
		pc:        newPseudoCost(),
		rootBound: math.Inf(-1),
	}
	if opts.TimeLimit > 0 {
		st.deadline = time.Now().Add(opts.TimeLimit)
	}
	st.bestBits.Store(math.Float64bits(math.Inf(1)))
	if opts.Incumbent != nil {
		if len(opts.Incumbent) != s.prob.NumCols() {
			return nil, fmt.Errorf("milp: incumbent has %d values, problem has %d columns",
				len(opts.Incumbent), s.prob.NumCols())
		}
		st.bestX = append([]float64(nil), opts.Incumbent...)
		st.bestBits.Store(math.Float64bits(s.objOf(opts.Incumbent)))
	}
	for _, cand := range opts.IncumbentPool {
		if len(cand) != s.prob.NumCols() || !s.checkFeasible(cand, st.tol) {
			continue
		}
		if obj := s.objOf(cand); obj < st.best() {
			st.bestX = append(st.bestX[:0], cand...)
			st.bestBits.Store(math.Float64bits(obj))
		}
	}

	if opts.RootCuts {
		// May replace st.s with a solver over a cut-tightened clone; every
		// path below reads the solver through st.s.
		st.addRootCuts()
	}
	if opts.Workers > 1 {
		return st.s.solveParallel(st)
	}
	w := st.newWorker(0)
	if w.err != nil {
		return nil, w.err
	}
	w.open.push(rootNode())
	func() {
		defer st.capturePanic()
		w.run()
	}()
	w.close()
	if w.err != nil {
		return nil, w.err
	}
	if err := st.err(); err != nil {
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
// integral (most-fractional branching), or -1 if all are integral.
func (s *Solver) mostFractional(x []float64, tol float64) lp.ColID {
	best := lp.ColID(-1)
	bestScore := tol
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
func (s *Solver) roundIntegers(x []float64, tol float64) []float64 {
	out := append([]float64(nil), x...)
	for _, c := range s.integer {
		out[c] = math.Round(out[c])
	}
	return out
}

// checkFeasible reports whether x satisfies every row (within a tolerance
// scaled by the row's magnitude), every column bound, and integrality on
// the integer columns. Used to vet untrusted IncumbentPool candidates.
func (s *Solver) checkFeasible(x []float64, tol float64) bool {
	const rowTol = 1e-6
	for j := 0; j < s.prob.NumCols(); j++ {
		c := s.prob.Col(lp.ColID(j))
		if x[j] < c.Lb-rowTol || x[j] > c.Ub+rowTol {
			return false
		}
	}
	for _, c := range s.integer {
		if math.Abs(x[c]-math.Round(x[c])) > tol {
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

// SortedIntegerCols returns the solver's integer columns in ascending
// order; exposed for deterministic reporting.
func (s *Solver) SortedIntegerCols() []lp.ColID {
	out := append([]lp.ColID(nil), s.integer...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
