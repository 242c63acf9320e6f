package lp

import (
	"cmp"
	"math"
	"slices"

	"sos/internal/telemetry"
)

// Resolver is the warm-start re-solve API used by branch and bound. It
// solves a sequence of LPs that differ from the base Problem only in
// variable bounds, keeping the simplex state and final basis alive
// between calls instead of rebuilding and re-running both phases.
//
// The key fact making this sound from *any* previously optimal state (not
// just a parent node's): changing variable bounds never invalidates the
// basis factorization or the reduced-cost row, so the retained basis
// stays dual feasible. Only primal feasibility can break — the variables
// whose bounds moved may sit outside them — and dual simplex pivots repair
// exactly that. A per-node Basis snapshot is therefore unnecessary: the
// resolver's own state is always a valid warm start for the next node,
// regardless of where that node sits in the search tree.
//
// The resolver runs whichever kernel Options selects, the dense tableau
// (dense.go) or the sparse revised simplex (sparse.go), through one warm
// path: the bound update, the dual repair and the primal cleanup ask the
// basis for the column and row images they need, so the warm-start
// contract and fallback behavior are the same code for both. With
// Options.Presolve the base problem is reduced ONCE at construction and
// per-call bound overrides are translated into the reduced space — valid
// because branch and bound only ever tightens bounds, and every presolve
// reduction remains sound under tighter boxes.
//
// Anything the warm path cannot certify (iteration cap, numerically
// degenerate rows) falls back to a from-scratch cold solve, so results are
// always as trustworthy as a first solve. Problem.Solve is exactly that:
// the first solve of a Resolver it then discards.
//
// A Resolver keeps one workspace for its whole life: one simplex, whose
// bounds, statuses, basic values, costs, reduced costs and work vectors
// every cold solve resets in place, and one dense tableau block that
// every cold build rewrites (the sparse kernel still allocates its column
// copy and work vectors per build). Each cold build writes exactly the
// tableau a fresh resolver's first build writes, so reuse changes no
// pivot and no solution bit; it only stops a cold re-solve from
// allocating once the workspace has grown to the largest build so far.
//
// A Resolver is not safe for concurrent use; each branch-and-bound solve
// owns its own.
type Resolver struct {
	p      *Problem
	target *Problem // the problem kernels actually solve (reduced under presolve)
	opts   Options

	pre       *presolveInfo        // nil when presolve is off
	redBounds map[ColID][2]float64 // translate() output buffer
	fullSol   Solution             // expanded solution under presolve

	s        *simplex             // the one workspace every solve runs on, nil before the first
	cur      map[ColID][2]float64 // effective overrides of the last solve
	reusable bool
	warmRuns int // warm solves since the last refactorization

	scratch []int      // changed-column buffer, sorted for determinism
	cands   []dualCand // entering-candidate buffer for the dual ratio test
	sol     Solution   // reused result; valid until the next Solve call
	stats   ResolveStats
}

// dualCand is one entering candidate in the bound-flipping dual ratio
// test: nonbasic column j with pivot magnitude ay and dual ratio |d_j|/ay.
type dualCand struct {
	j     int
	ratio float64
	ay    float64
}

// compareDualCands orders candidates by ascending ratio, then descending
// pivot magnitude (larger pivots are numerically safer), then column. The
// columns are distinct, so the order is total and the sort's result does
// not depend on the algorithm.
func compareDualCands(a, b dualCand) int {
	if c := cmp.Compare(a.ratio, b.ratio); c != 0 {
		return c
	}
	if c := cmp.Compare(b.ay, a.ay); c != 0 {
		return c
	}
	return cmp.Compare(a.j, b.j)
}

// ResolveStats counts how re-solves were served.
type ResolveStats struct {
	Cold        int // solves built from scratch (first call, fallbacks, refreshes)
	Warm        int // solves served from the retained basis
	Fallbacks   int // warm attempts abandoned to a cold rebuild
	DualIters   int // dual-simplex repair pivots across all warm solves
	PrimalIters int // primal cleanup iterations across all warm solves
	PresolveCut int // solves answered by the presolve layer alone (conflicts)
}

// warmDeltaMax gates the warm path on transition size: a re-solve whose
// bound set differs from the previous one in more than this many columns
// goes cold instead. Dual repair wins on the single-bound delta of a
// branch-and-bound dive step, but on multi-column jumps (backtracks,
// best-first frontier hops) it re-walks as many vertices as a
// from-scratch solve on a denser (filled-in) tableau, so the rebuild is
// both faster and restores tableau sparsity. Tuned on the paper's
// Example 1 sweep: 1 beats 3 and 8 by ~10% and no gate by ~30%.
const warmDeltaMax = 1

// refactorEvery bounds round-off drift in long-lived warm state: a full
// rebuild every N warm solves caps accumulated pivot error at what a
// single cold solve of depth ~N would see. (The sparse kernel additionally
// refactorizes its basis every spxRefactorEvery pivots inside a solve.)
const refactorEvery = 256

// NewResolver creates a warm-start re-solver for p; opts (nil for the
// defaults) tunes every solve. When opts.Presolve is set the reduction
// runs here, once, under the problem's own bounds, and every Solve call
// translates its bounds through the reduction.
func (p *Problem) NewResolver(opts *Options) (*Resolver, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	r := &Resolver{p: p, target: p, cur: map[ColID][2]float64{}}
	if opts != nil {
		r.opts = *opts
	}
	if r.opts.Presolve {
		r.opts.Presolve = false // kernels below run on the reduced problem
		r.pre = runPresolve(p)
		r.pre.emitTelemetry(r.opts.Telemetry)
		if !r.pre.infeasible {
			r.target = r.pre.reduced
		}
	}
	return r, nil
}

// Stats reports how the resolver's solves were served so far.
func (r *Resolver) Stats() ResolveStats { return r.stats }

// Solve re-optimizes under the given bound overrides: listed columns
// replace their bounds for this solve only, and all others revert to the
// problem's (nil solves under the problem's own bounds). The problem is
// not modified. The returned Solution and its slices are reused by the
// next Solve call; callers must copy anything they retain.
//
// With Options.Presolve the reduction was made once, under the problem's
// own bounds, so an override must stay inside its column's bounds in the
// problem, as branch and bound's overrides do. A loosening override is
// not honoured: it is answered for its intersection with presolve's box,
// and as Infeasible when that intersection is empty or excludes the
// value presolve fixed the column at.
func (r *Resolver) Solve(bounds map[ColID][2]float64) *Solution {
	if r.pre == nil {
		return r.innerSolve(bounds)
	}
	if r.pre.infeasible {
		r.stats.PresolveCut++
		r.pre.infeasibleSolution(&r.fullSol)
		return &r.fullSol
	}
	red, conflict := r.pre.translate(bounds, r.redBounds)
	r.redBounds = red
	if conflict {
		r.stats.PresolveCut++
		r.pre.infeasibleSolution(&r.fullSol)
		return &r.fullSol
	}
	inner := r.innerSolve(red)
	r.pre.expand(inner, &r.fullSol)
	return &r.fullSol
}

// innerSolve runs the warm/cold machinery on the target problem.
func (r *Resolver) innerSolve(bounds map[ColID][2]float64) *Solution {
	if h := r.opts.Hooks; h != nil && h.RejectWarm != nil && h.RejectWarm() {
		r.stats.Fallbacks++
		r.opts.Telemetry.Inc(telemetry.CtrLPFallbacks)
		return r.cold(bounds)
	}
	if r.s == nil || !r.reusable || r.warmRuns >= refactorEvery {
		return r.cold(bounds)
	}

	// Compute the bound delta between the previous solve and this one
	// (columns reverting to problem bounds plus columns whose override
	// changed), in sorted column order so floating-point accumulation is
	// deterministic.
	r.scratch = r.scratch[:0]
	for c := range r.cur {
		if _, ok := bounds[c]; !ok {
			r.scratch = append(r.scratch, int(c))
		}
	}
	for c, b := range bounds {
		if old, ok := r.cur[c]; !ok || old != b {
			r.scratch = append(r.scratch, int(c))
		}
	}
	slices.Sort(r.scratch)
	if len(r.scratch) > warmDeltaMax {
		return r.cold(bounds)
	}
	return r.warm(bounds)
}

// warm applies the bound delta to the retained basis, runs the dual
// repair, then a primal cleanup. Any numerical doubt (a repair that gives
// up, a singular refactorization mid-repair) falls back cold.
func (r *Resolver) warm(bounds map[ColID][2]float64) *Solution {
	r.stats.Warm++
	r.warmRuns++
	s := r.s
	for _, ci := range r.scratch {
		c := ColID(ci)
		if b, ok := bounds[c]; ok {
			s.applyBound(ci, b[0], b[1])
		} else {
			col := r.target.cols[c]
			s.applyBound(ci, col.Lb, col.Ub)
		}
	}
	r.setCur(bounds)

	// Fresh phase-2 reduced costs and objective: removes any drift in the
	// incrementally maintained values.
	s.iters = 0
	s.setPhaseObjective(false)

	st, ok := r.dualRepair()
	if !ok || s.broken {
		return r.fallback(bounds)
	}
	dual := s.iters
	r.stats.DualIters += dual
	if st == Optimal {
		before := s.iters
		st = s.iterate(false)
		if s.broken {
			return r.fallback(bounds)
		}
		r.stats.PrimalIters += s.iters - before
	}
	if tel := r.opts.Telemetry; tel != nil {
		tel.Inc(telemetry.CtrLPWarm)
		tel.Add(telemetry.CtrLPDualIters, int64(dual))
		tel.Add(telemetry.CtrLPPrimalIters, int64(s.iters-dual))
		tel.Emit(telemetry.EvLPResolve, float64(s.iters), "warm")
	}
	r.reusable = st == Optimal || st == Infeasible
	s.finishInto(st, &r.sol)
	return &r.sol
}

// fallback abandons a warm attempt and rebuilds cold.
func (r *Resolver) fallback(bounds map[ColID][2]float64) *Solution {
	r.stats.Warm--
	r.stats.Fallbacks++
	r.opts.Telemetry.Inc(telemetry.CtrLPFallbacks)
	return r.cold(bounds)
}

// cold rebuilds the selected kernel from scratch and runs both phases. The
// first cold solve creates the resolver's simplex; every later one (a
// jump past warmDeltaMax, a fallback, a refactorEvery refresh, a solve
// after a non-optimal one) resets that simplex in place and rebuilds the
// initial basis into the storage the previous build left, and the answer
// lands in the resolver's own Solution, as on the warm path.
func (r *Resolver) cold(bounds map[ColID][2]float64) *Solution {
	r.stats.Cold++
	r.warmRuns = 0
	if r.s == nil {
		r.s = newSimplex(r.target, &r.opts, bounds)
	} else {
		r.s.reset(bounds)
	}
	r.s.finishInto(r.s.solve(), &r.sol)
	if tel := r.opts.Telemetry; tel != nil {
		tel.Inc(telemetry.CtrLPCold)
		tel.Emit(telemetry.EvLPResolve, float64(r.sol.Iters), "cold")
	}
	r.setCur(bounds)
	// Phase-1 infeasibility (and iteration limits) leave artificials in
	// play; only a clean terminal state is a sound warm-start base.
	r.reusable = r.sol.Status == Optimal
	return &r.sol
}

func (r *Resolver) setCur(bounds map[ColID][2]float64) {
	for c := range r.cur {
		delete(r.cur, c)
	}
	for c, b := range bounds {
		r.cur[c] = b
	}
}

// applyBound installs new bounds for structural column j and, when j is
// nonbasic, snaps its resting value to the new bound, updating the basic
// values it feeds through its column image. A nonbasic column whose old
// value is one of its new bounds rests where it is, at that bound: a
// column released from [0, 0] stays at 0 whichever status held it there,
// so the release leaves xB, and primal feasibility, as they were.
func (s *simplex) applyBound(j int, lb, ub float64) {
	if s.lb[j] == lb && s.ub[j] == ub {
		return
	}
	old := s.value(j)
	s.lb[j], s.ub[j] = lb, ub
	if s.status[j] == basic {
		return // xB unchanged; any violation is the dual repair's job
	}
	// Each status change below may break dual feasibility (the sign of
	// d_j no longer matches the bound j rests at); the primal cleanup
	// restores it.
	switch {
	case old == lb:
		s.status[j] = atLower
	case old == ub:
		s.status[j] = atUpper
	case s.status[j] == atUpper && math.IsInf(ub, 1):
		// Cannot rest at +Inf; move to the lower bound.
		s.status[j] = atLower
	}
	nv := s.lb[j]
	if s.status[j] == atUpper {
		nv = s.ub[j]
	}
	if delta := nv - old; delta != 0 {
		s.b.column(j)
		for i, y := range s.w {
			if y != 0 {
				s.xB[i] -= y * delta
			}
		}
	}
}

// dualRepair restores primal feasibility with bounded-variable dual
// simplex pivots, keeping the reduced costs dual feasible throughout. The
// violated row of B⁻¹A comes from the basis as one row image; each flip or
// pivot asks for the entering column's image. Returns Optimal when
// feasibility is restored (optimality still pending a primal cleanup),
// Infeasible on a sound infeasibility certificate, IterLimit with ok=true
// when the solve's done channel closes or its deadline passes (polled
// every deadlineStride iterations, as the primal loop does; the caller
// reports the limit instead of rebuilding), and ok=false when the state
// is numerically untrustworthy and the caller should rebuild cold.
func (r *Resolver) dualRepair() (Status, bool) {
	s := r.s
	const pivEps = 1e-7
	// Bound violations below repairTol are treated as feasible: the warm
	// state's incrementally updated xB carries round-off on that order,
	// and chasing noise-level violations at degenerate vertices wastes
	// pivots (and can even "certify" phantom infeasibility). certTol is
	// the opposite guard: an infeasibility certificate is only trusted
	// when the unreachable remainder is decisively larger than any drift;
	// closer calls rebuild cold and let the from-scratch solve decide.
	const repairTol = 1e-7
	const certTol = 1e-5
	// The repair budget is deliberately tight: a cold two-phase solve of
	// these models costs on the order of m/4 pivots from a sparse slack
	// basis, while every warm pivot works on the filled-in retained
	// tableau. A repair that has not converged within that budget is
	// already losing to a rebuild, so give up early rather than burn the
	// generic primal iteration limit (tuned on the paper's Example 1
	// sweep: caps near m/4 beat 2(m+n) by ~1.8x end to end, because
	// abandoned repairs stop wasting thousands of dense pivots before
	// their inevitable cold fallback).
	maxRepair := s.m/4 + 30
	if s.max < maxRepair {
		maxRepair = s.max // ForceIterLimit failpoint caps the repair too
	}
	// One loop may flip several columns before it pivots, so the poll
	// keys on iterations since the last poll rather than on a multiple.
	nextPoll := s.iters
	for {
		if h := s.hooks; h != nil && h.OnPivot != nil {
			h.OnPivot(s.iters)
		}
		if s.iters >= maxRepair {
			return IterLimit, false
		}
		if s.iters >= nextPoll {
			if s.expired() {
				return IterLimit, true
			}
			nextPoll = s.iters + deadlineStride
		}
		// Most-violated basic variable.
		row, below := -1, false
		viol := repairTol
		for i := 0; i < s.m; i++ {
			bv := s.basicVar[i]
			if v := s.lb[bv] - s.xB[i]; v > viol {
				row, viol, below = i, v, true
			}
			if v := s.xB[i] - s.ub[bv]; v > viol {
				row, viol, below = i, v, false
			}
		}
		if row < 0 {
			return Optimal, true // primal feasible
		}
		bv := s.basicVar[row]
		if s.isArt[bv] {
			// A violated row whose basic variable is an artificial pinned
			// at zero means the row went numerically redundant; rebuild.
			return 0, false
		}

		// Entering candidates: nonbasics whose only allowed move (away
		// from their resting bound) pushes xB[row] toward the violated
		// bound.
		alpha := s.b.row(row)
		r.cands = r.cands[:0]
		marginal := false
		for j := 0; j < s.nTot; j++ {
			if s.status[j] == basic || s.lb[j] == s.ub[j] {
				continue
			}
			y := alpha[j]
			ay := math.Abs(y)
			if ay <= eps {
				continue
			}
			var helps bool
			if s.status[j] == atLower {
				helps = below == (y < 0) // moving up raises xB iff y < 0
			} else {
				helps = below == (y > 0) // moving down raises xB iff y > 0
			}
			if !helps {
				continue
			}
			if ay <= pivEps {
				// Could help in exact arithmetic but is too small to
				// pivot on; remember so we don't declare infeasible.
				marginal = true
				continue
			}
			r.cands = append(r.cands, dualCand{j: j, ratio: math.Abs(s.d[j]) / ay, ay: ay})
		}
		slices.SortFunc(r.cands, compareDualCands)

		// Bound-flipping ratio test: walk candidates in ascending dual
		// ratio. A candidate whose own range is exhausted before xB[row]
		// reaches its bound jumps to the opposite bound — sound because
		// the eventual pivot's larger ratio flips that column's reduced
		// cost to the sign its new status requires — and contributes its
		// full range; the first candidate that can absorb the remaining
		// step pivots in, landing xB[row] exactly on its bound. Restarting
		// the row scan after a flip instead (as a naive implementation
		// does) livelocks: the flip that repairs this row can be the exact
		// inverse of the flip that repairs another, and the search
		// ping-pongs between the two states forever.
		remaining := viol
		pivoted := false
		for _, c := range r.cands {
			dir := 1.0
			if s.status[c.j] == atUpper {
				dir = -1
			}
			s.iters++
			s.b.column(c.j)
			rng := s.ub[c.j] - s.lb[c.j]
			if capj := rng * c.ay; !math.IsInf(rng, 1) && capj < remaining {
				s.applyStep(c.j, dir, rng)
				if s.status[c.j] == atLower {
					s.status[c.j] = atUpper
				} else {
					s.status[c.j] = atLower
				}
				remaining -= capj
				continue
			}
			t := remaining / c.ay
			nv := s.boundValue(c.j, dir, t)
			s.applyStep(c.j, dir, t)
			if below {
				s.status[bv] = atLower
			} else {
				s.status[bv] = atUpper
			}
			s.pivot(row, c.j, nv)
			if s.broken {
				return 0, false
			}
			pivoted = true
			break
		}
		if pivoted {
			continue
		}
		if marginal {
			return 0, false // too close to call; rebuild cold
		}
		if remaining < certTol {
			return 0, false // could be drift, not infeasibility; rebuild
		}
		// Every helping column sits at its far bound and xB[row] still
		// violates by more than any plausible round-off: its value is
		// extremal over the whole box, so the row certifies primal
		// infeasibility. The flips taken on the way are kept; they only
		// moved nonbasics between their own bounds.
		return Infeasible, true
	}
}
