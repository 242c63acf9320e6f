package lp

import (
	"math"
	"slices"
	"time"
)

// varStatus tracks where a column currently sits.
type varStatus int8

const (
	atLower varStatus = iota
	atUpper
	basic
)

// simplex is the working state of one solve: the two-phase bounded-variable
// primal simplex, the bound-flipping dual repair the warm-start Resolver
// runs on it, and everything both need — bounds, statuses, basic values,
// phase costs, reduced costs and the Bland/stall state. The linear algebra
// of the current basis lives behind b: the dense tableau (dense.go) or the
// sparse LU factorization with an eta file (sparse.go). Every rule of the
// algorithm (entering, ratio test and its tie-break, step, artificial
// retirement, solution extraction) exists once, here, so the two kernels
// differ only in how they produce a column or row of B⁻¹A and how they
// change the basis.
//
// Internal column layout: [0, nStruct) structural variables in problem
// order, [nStruct, nStruct+nSlack) slacks (one per inequality row),
// [nStruct+nSlack, nTot) artificials (one per row that needs one).
type simplex struct {
	p        *Problem
	opts     *Options             // telemetry for the kernels
	bounds   map[ColID][2]float64 // bound overrides of this solve, kept for a restart
	max      int
	hooks    *Hooks
	deadline time.Time
	done     <-chan struct{}

	m       int // rows
	nStruct int
	nTot    int // all columns

	lb, ub []float64 // per internal column
	cost   []float64 // current phase objective
	isArt  []bool

	xB       []float64   // values of basic variables per row
	basicVar []int       // internal column basic in each row
	rowOf    []int       // inverse of basicVar: row of a basic column, -1 if nonbasic
	status   []varStatus // per internal column
	d        []float64   // reduced costs for the current phase
	w        []float64   // column image B⁻¹a_j loaded by basis.column
	obj      float64     // current phase objective value

	b basis

	iters  int
	bland  bool // anti-cycling mode
	stall  int  // iterations without objective improvement
	broken bool // singular refactorization; the solve restarts from scratch
}

// basis is the linear algebra under the simplex driver: a representation
// of the current basis B from which column and row images of B⁻¹A are
// computed, and which keeps the reduced costs d current across pivots.
// The driver calls it once per operation, never per element.
type basis interface {
	// build chooses the initial basis (startBasis) and lays out the
	// kernel's representation of its columns.
	build()
	// refactor re-derives the basis representation and xB from the
	// driver's basis, reporting false on a singular basis.
	refactor() bool
	// resetCosts recomputes the reduced costs d from scratch after the
	// driver installs new phase costs.
	resetCosts()
	// column loads B⁻¹a_j into the driver's w.
	column(j int)
	// row returns row i of B⁻¹A over all internal columns; entries of
	// basic columns are unspecified. The slice is valid until the next
	// basis call.
	row(i int) []float64
	// pivot updates the representation and the reduced costs after
	// column j (whose image is in w) replaced the basic variable at
	// position r; the driver has already moved the statuses and xB.
	pivot(r, j int)
}

// deadlineStride amortizes the deadline and cancellation poll in the
// primal loop and the dual repair.
const deadlineStride = 16

// eps is the simplex's feasibility and optimality tolerance.
const eps = 1e-9

// newSimplex returns a solver for p, built for a cold solve under bounds
// (nil: the problem's own).
func newSimplex(p *Problem, opts *Options, bounds map[ColID][2]float64) *simplex {
	s := &simplex{p: p, opts: opts, max: opts.maxIters(p), hooks: opts.Hooks,
		deadline: opts.Deadline, done: opts.Done}
	if opts.kernelFor(p) == KernelSparse {
		s.b = &sparseBasis{s: s}
	} else {
		s.b = &denseBasis{s: s}
	}
	s.reset(bounds)
	return s
}

// reset readies s for a cold solve under bounds, in place: it clears the
// iteration and anti-cycling state and rebuilds the initial basis into
// the storage the previous build left. The driver's vectors are resized
// rather than reallocated, so after the first build a resolver's cold
// solves allocate only when a build needs more artificial columns than
// any build before it (and whatever the kernel allocates for itself).
func (s *simplex) reset(bounds map[ColID][2]float64) {
	s.bounds = bounds
	s.iters, s.obj, s.bland, s.stall, s.broken = 0, 0, false, 0, false
	s.b.build()
}

// resize returns buf resized to n zeroed elements, reusing its storage
// when its capacity allows. It grows the storage as append does, so a
// run of builds that each need a few more artificial columns than the
// last does not reallocate at every one of them.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		buf = slices.Grow(buf[:0], n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// startBasis lays out the part of a cold build both kernels share: the
// bounds and the initial basis of the equality-form problem whose rows v
// describes, every row normalized to
//
//	a·x + slack = b   (slack ∈ [0,∞) for ≤-normalized rows; none for =)
//
// with ≥ rows multiplied by −1. Every structural column starts nonbasic
// at its lower bound (the solve's override where it has one) and every
// slack at 0; xB gets each row's residual under that start. A row whose
// slack exists and whose residual is ≥ 0 makes the slack basic; every
// other row gets a basic artificial column of its own, numbered after the
// slacks in row order, with bounds [0, ∞). The kernel then lays out its
// columns; an artificial's coefficient is −1 where its row's residual is
// negative, so that it starts at |residual|.
//
// Each row's terms are subtracted in column order, the order a scan of its
// dense row takes, including the terms of columns resting at 0: the dense
// tableau starts from these residuals as its xB, so their bits, the sign
// of a zero included, can reach the solution bits TestKernelPivotPaths
// pins. The sparse kernel reads them only to choose the basis and
// recomputes xB when it factorizes.
func (s *simplex) startBasis(v *colView) {
	p := s.p
	s.m, s.nStruct = v.m, v.n
	n := s.nStruct + v.nSlack + s.m // room for one artificial per row
	s.lb, s.ub = slices.Grow(s.lb[:0], n), slices.Grow(s.ub[:0], n)
	for j, c := range p.cols {
		lb, ub := c.Lb, c.Ub
		if b, ok := s.bounds[ColID(j)]; ok {
			lb, ub = b[0], b[1]
		}
		s.lb = append(s.lb, lb)
		s.ub = append(s.ub, ub)
	}
	for i := 0; i < v.nSlack; i++ {
		s.lb = append(s.lb, 0)
		s.ub = append(s.ub, math.Inf(1))
	}

	s.xB = resize(s.xB, s.m)
	for i := range p.rows {
		s.xB[i] = v.sign[i] * p.rows[i].Rhs
	}
	for j := 0; j < s.nStruct; j++ {
		ri, ax := v.col(j)
		for t, i := range ri {
			if a := ax[t]; a != 0 {
				s.xB[i] -= a * s.lb[j]
			}
		}
	}

	s.basicVar = resize(s.basicVar, s.m)
	s.nTot = s.nStruct + v.nSlack
	for i, res := range s.xB {
		if sl := v.slackOf[i]; sl >= 0 && res >= 0 {
			s.basicVar[i] = s.nStruct + int(sl)
			continue
		}
		s.basicVar[i] = s.nTot
		s.nTot++
		s.lb = append(s.lb, 0)
		s.ub = append(s.ub, math.Inf(1))
	}
	s.isArt = resize(s.isArt, s.nTot)
	for j := s.nStruct + v.nSlack; j < s.nTot; j++ {
		s.isArt[j] = true
	}
	s.initBasis()
}

// initBasis derives the statuses and row map from basicVar and sizes the
// driver's work vectors once the basis has fixed nTot.
func (s *simplex) initBasis() {
	s.status = resize(s.status, s.nTot)
	s.rowOf = resize(s.rowOf, s.nTot)
	for j := range s.rowOf {
		s.rowOf[j] = -1
	}
	for i, bv := range s.basicVar {
		s.status[bv] = basic
		s.rowOf[bv] = i
	}
	s.cost = resize(s.cost, s.nTot)
	s.d = resize(s.d, s.nTot)
	s.w = resize(s.w, s.m)
}

// setPhaseObjective installs the cost vector and refreshes the reduced
// costs and objective value from scratch.
func (s *simplex) setPhaseObjective(phase1 bool) {
	for j := range s.cost {
		s.cost[j] = 0
	}
	if phase1 {
		for j := 0; j < s.nTot; j++ {
			if s.isArt[j] {
				s.cost[j] = 1
			}
		}
	} else {
		for j := 0; j < s.nStruct; j++ {
			s.cost[j] = s.p.cols[j].Obj
		}
	}
	s.b.resetCosts()
	s.recomputeObj()
	s.bland = false
	s.stall = 0
}

// recomputeObj sets obj = Σ c_j x_j for the current phase costs.
func (s *simplex) recomputeObj() {
	s.obj = 0
	for j := 0; j < s.nTot; j++ {
		if c := s.cost[j]; c != 0 {
			s.obj += c * s.value(j)
		}
	}
}

// value returns the current value of internal column j.
func (s *simplex) value(j int) float64 {
	switch s.status[j] {
	case atLower:
		return s.lb[j]
	case atUpper:
		return s.ub[j]
	default:
		if r := s.rowOf[j]; r >= 0 {
			return s.xB[r]
		}
		return 0
	}
}

// solve executes phase 1 (if artificials exist) then phase 2. A singular
// refactorization mid-solve restarts the whole solve once from a fresh
// initial basis; a second failure degrades to IterLimit, which every
// caller already treats as "bound untrusted".
func (s *simplex) solve() Status {
	st, ok := s.runOnce()
	if !ok {
		s.rebuild()
		if st, ok = s.runOnce(); !ok {
			st = IterLimit
		}
	}
	return st
}

// rebuild resets to the initial basis after numerical failure, keeping
// the iteration count so the overall budget still holds.
func (s *simplex) rebuild() {
	iters := s.iters
	s.b.build()
	s.iters = iters
	s.broken = false
}

func (s *simplex) runOnce() (Status, bool) {
	if !s.b.refactor() {
		return IterLimit, false
	}
	anyArt := false
	for _, a := range s.isArt {
		if a {
			anyArt = true
			break
		}
	}
	if anyArt {
		s.setPhaseObjective(true)
		st := s.iterate(true)
		if s.broken {
			return IterLimit, false
		}
		if st == IterLimit {
			return IterLimit, true
		}
		if s.obj > 1e-6 {
			return Infeasible, true
		}
		s.retireArtificials()
		if s.broken {
			return IterLimit, false
		}
	}
	s.setPhaseObjective(false)
	st := s.iterate(false)
	if s.broken {
		return IterLimit, false
	}
	return st, true
}

// retireArtificials pins every artificial to zero so phase 2 can never
// reintroduce infeasibility, and pivots basic artificials out of the basis
// where possible. A basic artificial that cannot be pivoted out sits at
// value 0 in a redundant row and is harmless.
func (s *simplex) retireArtificials() {
	for j := 0; j < s.nTot; j++ {
		if s.isArt[j] {
			s.ub[j] = 0
		}
	}
	for i := 0; i < s.m; i++ {
		bv := s.basicVar[i]
		if !s.isArt[bv] {
			continue
		}
		// Find any non-artificial column with a usable pivot element.
		alpha := s.b.row(i)
		pivot := -1
		for j := 0; j < s.nTot; j++ {
			if !s.isArt[j] && s.status[j] != basic && math.Abs(alpha[j]) > 1e-7 {
				pivot = j
				break
			}
		}
		if pivot < 0 {
			continue
		}
		// Degenerate pivot: the artificial is at 0, so the entering
		// variable stays at its current bound value and feasibility is
		// preserved.
		s.b.column(pivot)
		s.status[bv] = atLower
		s.pivot(i, pivot, s.value(pivot))
		if s.broken {
			return
		}
	}
}

// iterate runs primal simplex iterations for the current phase.
func (s *simplex) iterate(phase1 bool) Status {
	for {
		if h := s.hooks; h != nil && h.OnPivot != nil {
			h.OnPivot(s.iters)
		}
		if s.iters >= s.max {
			return IterLimit
		}
		if s.iters%deadlineStride == 0 && s.expired() {
			return IterLimit
		}
		s.iters++

		j, dir := s.chooseEntering(phase1)
		if j < 0 {
			return Optimal
		}

		s.b.column(j)
		leave, t, hitUpper := s.ratioTest(j, dir)
		if leave == -2 {
			if phase1 {
				// Unbounded phase-1 objective cannot happen (bounded
				// below by 0); treat as numerical trouble.
				return IterLimit
			}
			return Unbounded
		}

		prevObj := s.obj
		if leave == -1 {
			// Bound flip: j moves from one bound to the other.
			s.applyStep(j, dir, t)
			if s.status[j] == atLower {
				s.status[j] = atUpper
			} else {
				s.status[j] = atLower
			}
		} else {
			s.applyStep(j, dir, t)
			newVal := s.boundValue(j, dir, t)
			lv := s.basicVar[leave]
			if hitUpper {
				s.status[lv] = atUpper
			} else {
				s.status[lv] = atLower
			}
			s.pivot(leave, j, newVal)
			if s.broken {
				return IterLimit
			}
		}
		if s.obj < prevObj-eps {
			s.stall = 0
		} else {
			s.stall++
			if s.stall > 2*(s.m+s.nTot) {
				s.bland = true
			}
		}
	}
}

// expired reports whether the solve's done channel is closed or its
// deadline has passed.
func (s *simplex) expired() bool {
	select {
	case <-s.done:
		return true
	default:
	}
	return !s.deadline.IsZero() && time.Now().After(s.deadline)
}

// chooseEntering picks a nonbasic column whose move improves the objective,
// returning its index and move direction (+1 from lower bound, −1 from
// upper). Returns (-1, 0) at optimality.
//
// A column's score is |d_j|, so the scan compares it with the best score
// so far (eps in Bland mode, where the first eligible column wins) before
// it reads anything else: most columns, the basic ones (d_j = 0) among
// them, fail that one test.
func (s *simplex) chooseEntering(phase1 bool) (int, float64) {
	bestJ, bestScore, bestDir := -1, eps, 0.0
	for j, dj := range s.d[:s.nTot] {
		if math.Abs(dj) <= bestScore {
			continue
		}
		if s.status[j] == basic {
			continue
		}
		if s.isArt[j] && !phase1 {
			continue
		}
		if s.lb[j] == s.ub[j] {
			continue // fixed variable can never move
		}
		var dir float64
		switch s.status[j] {
		case atLower:
			if dj < 0 {
				dir = 1
			}
		case atUpper:
			if dj > 0 {
				dir = -1
			}
		}
		if dir == 0 {
			continue
		}
		if s.bland {
			return j, dir // Bland: first eligible index
		}
		bestJ, bestScore, bestDir = j, math.Abs(dj), dir
	}
	return bestJ, bestDir
}

// ratioTest computes how far column j, whose image is in w, can move in
// direction dir. Returns (leaveRow, step, leavingHitUpper); leaveRow -1
// means a bound flip of j itself, -2 means unbounded.
func (s *simplex) ratioTest(j int, dir float64) (int, float64, bool) {
	t := math.Inf(1)
	if !math.IsInf(s.ub[j], 1) {
		t = s.ub[j] - s.lb[j]
	}
	leave := -1
	hitUpper := false
	for i, y := range s.w {
		if y == 0 {
			continue
		}
		delta := dir * y // basic i changes by −delta·t
		bv := s.basicVar[i]
		var limit float64
		var upper bool
		if delta > eps {
			limit = (s.xB[i] - s.lb[bv]) / delta
			upper = false
		} else if delta < -eps {
			if math.IsInf(s.ub[bv], 1) {
				continue
			}
			limit = (s.ub[bv] - s.xB[i]) / (-delta)
			upper = true
		} else {
			continue
		}
		if limit < -eps {
			limit = 0
		}
		if limit < t-eps ||
			(limit < t+eps && leave >= 0 && s.betterLeaving(i, leave)) {
			t = limit
			leave = i
			hitUpper = upper
		}
	}
	if math.IsInf(t, 1) {
		return -2, 0, false
	}
	if t < 0 {
		t = 0
	}
	return leave, t, hitUpper
}

// betterLeaving breaks ratio-test ties: prefer the larger pivot element for
// numerical stability, then the smaller basic index (Bland-compatible).
func (s *simplex) betterLeaving(cand, cur int) bool {
	pc, pu := math.Abs(s.w[cand]), math.Abs(s.w[cur])
	if s.bland {
		return s.basicVar[cand] < s.basicVar[cur]
	}
	if pc != pu {
		return pc > pu
	}
	return s.basicVar[cand] < s.basicVar[cur]
}

// applyStep moves nonbasic j, whose image is in w, by t in direction dir,
// updating basic values and the objective.
func (s *simplex) applyStep(j int, dir, t float64) {
	if t == 0 {
		return
	}
	for i, y := range s.w {
		if y != 0 {
			s.xB[i] -= t * dir * y
		}
	}
	s.obj += s.d[j] * dir * t
}

// boundValue returns the value of column j after moving t from its current
// bound in direction dir.
func (s *simplex) boundValue(j int, dir, t float64) float64 {
	if s.status[j] == atLower {
		return s.lb[j] + dir*t
	}
	return s.ub[j] + dir*t
}

// pivot makes column j, whose image is in w, basic in row r with value
// newVal. The caller has already given the leaving variable its nonbasic
// status.
func (s *simplex) pivot(r, j int, newVal float64) {
	if old := s.basicVar[r]; old != j {
		s.rowOf[old] = -1
	}
	s.status[j] = basic
	s.basicVar[r] = j
	s.rowOf[j] = r
	s.xB[r] = newVal
	s.b.pivot(r, j)
}

// finishInto extracts the structural solution into sol, reusing its slices
// when their capacity allows (the Resolver calls this with the same
// Solution on every re-solve, warm or cold, to avoid per-node allocation).
func (s *simplex) finishInto(st Status, sol *Solution) {
	sol.Status = st
	sol.Iters = s.iters
	sol.Obj = 0
	if cap(sol.X) < s.nStruct {
		sol.X = make([]float64, s.nStruct)
	}
	sol.X = sol.X[:s.nStruct]
	for j := 0; j < s.nStruct; j++ {
		sol.X[j] = s.value(j)
	}
	if st == Optimal || st == IterLimit {
		obj := 0.0
		for j := 0; j < s.nStruct; j++ {
			obj += s.p.cols[j].Obj * sol.X[j]
		}
		sol.Obj = obj
	}
	if st == Optimal {
		if cap(sol.ReducedCosts) < s.nStruct {
			sol.ReducedCosts = make([]float64, s.nStruct)
		}
		sol.ReducedCosts = sol.ReducedCosts[:s.nStruct]
		copy(sol.ReducedCosts, s.d[:s.nStruct])
	} else {
		sol.ReducedCosts = nil
	}
}
