package lp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// randomLP builds a random bounded-variable LP that is feasible by
// construction (a reference point inside the box satisfies every row) and
// returns the known-feasible point. Mirrors TestRandomFeasibility's
// generator but parameterized so the equivalence suite can scale sizes.
func randomLP(rng *rand.Rand, n, m int) (*Problem, []float64) {
	p := NewProblem("rand")
	ref := make([]float64, n)
	for j := 0; j < n; j++ {
		lb := float64(rng.Intn(5)) - 2
		width := 1 + rng.Float64()*10
		ub := lb + width
		if rng.Intn(4) == 0 {
			ub = math.Inf(1)
			width = 5
		}
		p.AddCol("", lb, ub, rng.NormFloat64())
		ref[j] = lb + rng.Float64()*math.Min(width, 10)
	}
	for i := 0; i < m; i++ {
		terms := make([]Term, 0, n)
		lhs := 0.0
		for j := 0; j < n; j++ {
			if rng.Intn(3) == 0 {
				continue
			}
			coef := float64(rng.Intn(7) - 3)
			if coef == 0 {
				coef = 1
			}
			terms = append(terms, Term{ColID(j), coef})
			lhs += coef * ref[j]
		}
		if len(terms) == 0 {
			continue
		}
		switch rng.Intn(3) {
		case 0:
			p.AddRow("", Le, lhs+rng.Float64()*3, terms...)
		case 1:
			p.AddRow("", Ge, lhs-rng.Float64()*3, terms...)
		default:
			p.AddRow("", Eq, lhs, terms...)
		}
	}
	return p, ref
}

// checkDualSigns verifies that a reported Optimal solution's reduced
// costs certify optimality against its own primal point: a variable off
// its bound must have (near-)zero reduced cost, a variable at its lower
// bound must not price negative, and one at its upper bound must not
// price positive. Duals at degenerate optima are not unique across
// kernels, so each kernel is checked against its own certificate rather
// than against the other's.
func checkDualSigns(t *testing.T, p *Problem, sol *Solution, tag string) {
	t.Helper()
	const tol = 1e-5
	for j := 0; j < p.NumCols(); j++ {
		c := p.Col(ColID(j))
		d := sol.ReducedCosts[j]
		atLb := sol.X[j] <= c.Lb+1e-7
		atUb := !math.IsInf(c.Ub, 1) && sol.X[j] >= c.Ub-1e-7
		switch {
		case atLb && d < -tol && !atUb:
			t.Fatalf("%s: col %d at lower bound with reduced cost %g", tag, j, d)
		case atUb && d > tol && !atLb:
			t.Fatalf("%s: col %d at upper bound with reduced cost %g", tag, j, d)
		case !atLb && !atUb && math.Abs(d) > tol:
			t.Fatalf("%s: interior col %d with reduced cost %g", tag, j, d)
		}
	}
}

// solveVariants runs the same problem through every kernel/presolve
// combination and checks they agree on status and (when optimal)
// objective, each with an internally consistent dual certificate.
func solveVariants(t *testing.T, p *Problem, trial int) {
	t.Helper()
	variants := []struct {
		tag       string
		opts      Options
		checkDual bool
	}{
		// Presolve variants skip the dual-sign certificate: a column at a
		// presolve-tightened bound legitimately carries a nonzero reduced
		// cost yet looks interior against the original bounds. The values
		// remain valid objective-sensitivity bounds (the reductions
		// preserve the feasible set), which is all reduced-cost fixing in
		// the MILP layer relies on.
		{"dense", Options{Kernel: KernelDense}, true},
		{"sparse", Options{Kernel: KernelSparse}, true},
		{"dense+presolve", Options{Kernel: KernelDense, Presolve: true}, false},
		{"sparse+presolve", Options{Kernel: KernelSparse, Presolve: true}, false},
	}
	var base *Solution
	for _, v := range variants {
		opts := v.opts
		sol, err := p.Solve(&opts)
		if err != nil {
			t.Fatalf("trial %d %s: %v", trial, v.tag, err)
		}
		if base == nil {
			base = sol
			if sol.Status == Optimal {
				feasCheck(t, p, sol.X)
			}
			continue
		}
		if sol.Status != base.Status {
			t.Fatalf("trial %d: %s status %v, dense got %v", trial, v.tag, sol.Status, base.Status)
		}
		if sol.Status != Optimal {
			continue
		}
		if math.Abs(sol.Obj-base.Obj) > 1e-6*(1+math.Abs(base.Obj)) {
			t.Fatalf("trial %d: %s obj %g, dense obj %g", trial, v.tag, sol.Obj, base.Obj)
		}
		feasCheck(t, p, sol.X)
		if v.checkDual {
			checkDualSigns(t, p, sol, v.tag)
		}
	}
}

// TestSparseDenseEquivalence is the randomized cross-check oracle: 120
// random instances (mixed sizes, feasible by construction plus a few
// contradictory ones) must agree across dense/sparse × presolve on/off.
func TestSparseDenseEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	for trial := 0; trial < 120; trial++ {
		n := 2 + rng.Intn(12)
		m := 1 + rng.Intn(14)
		p, _ := randomLP(rng, n, m)
		solveVariants(t, p, trial)
	}
}

// TestSparseDenseEquivalenceInfeasible cross-checks contradictory
// problems: sum of variables forced above the sum of their upper bounds.
func TestSparseDenseEquivalenceInfeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(6)
		p := NewProblem("infrand")
		var terms []Term
		total := 0.0
		for j := 0; j < n; j++ {
			ub := 1 + rng.Float64()*4
			p.AddCol("", 0, ub, rng.NormFloat64())
			terms = append(terms, Term{ColID(j), 1})
			total += ub
		}
		p.AddRow("impossible", Ge, total+1+rng.Float64(), terms...)
		for _, kern := range []Kernel{KernelDense, KernelSparse} {
			for _, pre := range []bool{false, true} {
				sol, err := p.Solve(&Options{Kernel: kern, Presolve: pre})
				if err != nil {
					t.Fatalf("trial %d: %v", trial, err)
				}
				if sol.Status != Infeasible {
					t.Fatalf("trial %d (kernel=%v presolve=%v): status %v, want infeasible",
						trial, kern, pre, sol.Status)
				}
			}
		}
	}
}

// TestSparseLargerInstances stresses the sparse kernel at sizes where the
// eta file rolls over into scheduled refactorizations, checking both
// correctness against dense and that refactorizations actually happened.
func TestSparseLargerInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 6; trial++ {
		n := 40 + rng.Intn(40)
		m := 30 + rng.Intn(40)
		p, _ := randomLP(rng, n, m)
		dense, err := p.Solve(&Options{Kernel: KernelDense})
		if err != nil {
			t.Fatalf("trial %d dense: %v", trial, err)
		}
		sparse, err := p.Solve(&Options{Kernel: KernelSparse})
		if err != nil {
			t.Fatalf("trial %d sparse: %v", trial, err)
		}
		if sparse.Status != dense.Status {
			t.Fatalf("trial %d: sparse %v dense %v", trial, sparse.Status, dense.Status)
		}
		if dense.Status == Optimal {
			if math.Abs(sparse.Obj-dense.Obj) > 1e-6*(1+math.Abs(dense.Obj)) {
				t.Fatalf("trial %d: sparse obj %g dense obj %g", trial, sparse.Obj, dense.Obj)
			}
			feasCheck(t, p, sparse.X)
		}
	}
}

// TestSparseForcedRefactorization pins a seed whose solve exceeds the eta
// budget, proving the periodic refactorization path runs and preserves
// the optimum.
func TestSparseForcedRefactorization(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	p, _ := randomLP(rng, 90, 70)
	s := newSimplex(p, &Options{Kernel: KernelSparse}, nil)
	var sol Solution
	s.finishInto(s.solve(), &sol)
	if sol.Status != Optimal {
		t.Fatalf("status %v, want optimal", sol.Status)
	}
	if sol.Iters <= spxRefactorEvery {
		t.Skipf("instance closed in %d iters; need > %d to force a refactorization", sol.Iters, spxRefactorEvery)
	}
	dense, err := p.Solve(&Options{Kernel: KernelDense})
	if err != nil || dense.Status != Optimal {
		t.Fatalf("dense cross-check failed: %v %v", err, dense.Status)
	}
	if math.Abs(sol.Obj-dense.Obj) > 1e-6*(1+math.Abs(dense.Obj)) {
		t.Fatalf("obj after refactorizations %g, dense %g", sol.Obj, dense.Obj)
	}
}

// TestSparseSingularBasisRecovery corrupts a solver's basis so that the
// first factorization is exactly singular, and checks the rebuild path
// recovers the true optimum rather than failing the solve.
func TestSparseSingularBasisRecovery(t *testing.T) {
	p := NewProblem("recover")
	x := p.AddCol("x", 0, math.Inf(1), -1)
	y := p.AddCol("y", 0, math.Inf(1), -1)
	p.AddRow("r1", Le, 4, Term{x, 1}, Term{y, 2})
	p.AddRow("r2", Le, 6, Term{x, 3}, Term{y, 1})
	s := newSimplex(p, &Options{Kernel: KernelSparse}, nil)
	// Duplicate a basic column across two rows: B has two identical
	// columns, so the LU must report singularity (the drift-equivalent of a
	// numerically collapsed eta chain).
	s.basicVar[1] = s.basicVar[0]
	var sol Solution
	s.finishInto(s.solve(), &sol)
	if sol.Status != Optimal {
		t.Fatalf("status %v, want optimal after rebuild", sol.Status)
	}
	if !approx(sol.Obj, -2.8) {
		t.Fatalf("obj %g, want -2.8", sol.Obj)
	}
}

// TestSparseDegenerateCycling runs Beale's classic cycling example, which
// loops forever under pure Dantzig pricing with fixed tie-breaking. The
// stall detector must engage Bland's rule and terminate at the optimum.
func TestSparseDegenerateCycling(t *testing.T) {
	build := func() *Problem {
		p := NewProblem("beale")
		x1 := p.AddCol("x1", 0, math.Inf(1), -0.75)
		x2 := p.AddCol("x2", 0, math.Inf(1), 150)
		x3 := p.AddCol("x3", 0, math.Inf(1), -0.02)
		x4 := p.AddCol("x4", 0, math.Inf(1), 6)
		p.AddRow("r1", Le, 0, Term{x1, 0.25}, Term{x2, -60}, Term{x3, -1.0 / 25}, Term{x4, 9})
		p.AddRow("r2", Le, 0, Term{x1, 0.5}, Term{x2, -90}, Term{x3, -1.0 / 50}, Term{x4, 3})
		p.AddRow("r3", Le, 1, Term{x3, 1})
		return p
	}
	for _, kern := range []Kernel{KernelDense, KernelSparse} {
		p := build()
		sol, err := p.Solve(&Options{Kernel: kern})
		if err != nil {
			t.Fatalf("kernel %v: %v", kern, err)
		}
		if sol.Status != Optimal {
			t.Fatalf("kernel %v: status %v, want optimal", kern, sol.Status)
		}
		if !approx(sol.Obj, -0.05) {
			t.Fatalf("kernel %v: obj %g, want -0.05", kern, sol.Obj)
		}
	}
}

// TestLUFactorRoundTrip checks ftran/btran against dense arithmetic on
// random sparse matrices: on random right-hand sides against a known
// solution, and on every unit right-hand side (the BTRAN a pivot row
// starts from) by residual, first on the factor alone and then on the
// factor plus a few eta updates, each replacing one column of the matrix.
func TestLUFactorRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	updates := 0
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(12)
		dense := make([][]float64, n)
		for i := range dense {
			dense[i] = make([]float64, n)
		}
		// Random sparse matrix with a guaranteed-nonsingular diagonal.
		for i := 0; i < n; i++ {
			dense[i][i] = 1 + rng.Float64()
			for j := 0; j < n; j++ {
				if i != j && rng.Intn(3) == 0 {
					dense[i][j] = rng.NormFloat64()
				}
			}
		}
		var f luFactor
		ok := f.factorize(n, func(k int) ([]int32, []float64) {
			var ri []int32
			var ax []float64
			for i := 0; i < n; i++ {
				if dense[i][k] != 0 {
					ri = append(ri, int32(i))
					ax = append(ax, dense[i][k])
				}
			}
			return ri, ax
		})
		if !ok {
			t.Fatalf("trial %d: unexpected singular", trial)
		}
		xref := make([]float64, n)
		for i := range xref {
			xref[i] = rng.NormFloat64()
		}
		// FTRAN: b = A·xref, solve, expect xref.
		b := make([]float64, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				b[i] += dense[i][j] * xref[j]
			}
		}
		scratch := make([]float64, n)
		f.ftran(b, scratch)
		for i := range b {
			if math.Abs(b[i]-xref[i]) > 1e-8 {
				t.Fatalf("trial %d: ftran[%d] = %g, want %g", trial, i, b[i], xref[i])
			}
		}
		// BTRAN: c = Aᵀ·yref, solve, expect yref.
		c := make([]float64, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				c[i] += dense[j][i] * xref[j]
			}
		}
		f.btran(c, scratch)
		for i := range c {
			if math.Abs(c[i]-xref[i]) > 1e-8 {
				t.Fatalf("trial %d: btran[%d] = %g, want %g", trial, i, c[i], xref[i])
			}
		}

		var etas []etaCol
		checkUnitSolves(t, fmt.Sprintf("trial %d", trial), &f, etas, dense)
		// Replace a few columns through the eta file, as simplex pivots
		// do: the entering column's FTRAN image w, taken through the
		// updates so far, becomes the eta at the position it replaces.
		for u := 0; u < 3; u++ {
			a := make([]float64, n)
			for i := range a {
				if rng.Intn(2) == 0 {
					a[i] = rng.NormFloat64()
				}
			}
			w := append([]float64(nil), a...)
			f.ftran(w, scratch)
			ftranEtas(etas, w)
			r := rng.Intn(n)
			if math.Abs(w[r]) < 0.1 {
				continue // a pivot this small would make the update ill-conditioned
			}
			etas = append(etas, captureEta(r, w))
			for i := range dense {
				dense[i][r] = a[i]
			}
			checkUnitSolves(t, fmt.Sprintf("trial %d after %d updates", trial, len(etas)), &f, etas, dense)
			updates++
		}
	}
	if updates < 40 {
		t.Fatalf("only %d eta updates checked", updates)
	}
}

// checkUnitSolves solves B·x = e_k and Bᵀ·y = e_k for every k through the
// factor f and the eta file etas, and checks both against the current
// basis matrix B (dense) by residual.
func checkUnitSolves(t *testing.T, tag string, f *luFactor, etas []etaCol, dense [][]float64) {
	t.Helper()
	n := len(dense)
	scratch := make([]float64, n)
	for k := 0; k < n; k++ {
		x := make([]float64, n)
		x[k] = 1
		f.ftran(x, scratch)
		ftranEtas(etas, x)
		y := make([]float64, n)
		y[k] = 1
		btranEtas(etas, y)
		f.btran(y, scratch)
		for i := 0; i < n; i++ {
			want := 0.0
			if i == k {
				want = 1
			}
			bx, bty := 0.0, 0.0
			for j := 0; j < n; j++ {
				bx += dense[i][j] * x[j]
				bty += dense[j][i] * y[j]
			}
			if math.Abs(bx-want) > 1e-8 {
				t.Fatalf("%s: (B·B⁻¹e_%d)[%d] = %g, want %g", tag, k, i, bx, want)
			}
			if math.Abs(bty-want) > 1e-8 {
				t.Fatalf("%s: (Bᵀ·B⁻ᵀe_%d)[%d] = %g, want %g", tag, k, i, bty, want)
			}
		}
	}
}

// TestSparseRowMatchesColumns checks the sparse kernel's row images,
// computed over the row-wise copy of A, against the FTRAN column images:
// entry j of row i must equal entry i of B⁻¹a_j for every nonbasic j.
// The bases are the ones random LPs reach after a random number of
// pivots, eta file included. Each basis is checked on two different rows
// in a row, so an entry the first image wrote and the second one does not
// must read 0, not the stale value.
func TestSparseRowMatchesColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	checked := 0
	for trial := 0; trial < 60; trial++ {
		p, _ := randomLP(rng, 4+rng.Intn(30), 3+rng.Intn(25))
		s := newSimplex(p, &Options{Kernel: KernelSparse}, nil)
		s.max = rng.Intn(40)
		s.solve()
		if s.broken || s.m < 2 {
			continue
		}
		b := s.b.(*sparseBasis)
		i1 := rng.Intn(s.m)
		i2 := (i1 + 1 + rng.Intn(s.m-1)) % s.m
		for _, i := range []int{i1, i2} {
			alpha := append([]float64(nil), b.row(i)...)
			for j := 0; j < s.nTot; j++ {
				if s.status[j] == basic {
					continue
				}
				b.column(j)
				if want := s.w[i]; math.Abs(alpha[j]-want) > 1e-9*(1+math.Abs(want)) {
					t.Fatalf("trial %d: row %d, column %d: %g, FTRAN image %g", trial, i, j, alpha[j], want)
				}
			}
			checked++
		}
	}
	if checked < 60 {
		t.Fatalf("only %d row images checked", checked)
	}
}

// TestLUFactorSingular feeds an exactly rank-deficient basis.
func TestLUFactorSingular(t *testing.T) {
	col := []int32{0, 1}
	val := []float64{1, 2}
	var f luFactor
	if f.factorize(2, func(k int) ([]int32, []float64) { return col, val }) {
		t.Fatal("factorize accepted a singular matrix")
	}
}

// TestColViewCacheInvalidation ensures structural edits drop the CSC
// snapshot and clones share it.
func TestColViewCacheInvalidation(t *testing.T) {
	p := NewProblem("cache")
	x := p.AddCol("x", 0, 1, 1)
	p.AddRow("r", Le, 1, Term{x, 1})
	v1 := p.columns()
	q := p.Clone()
	if q.columns() != v1 {
		t.Fatal("clone does not share the column cache")
	}
	p.AddCol("y", 0, 1, 1)
	if p.columns() == v1 {
		t.Fatal("AddCol did not invalidate the column cache")
	}
	if q.columns() != v1 {
		t.Fatal("mutating the parent invalidated the clone's cache")
	}
	p.AddRow("r2", Le, 1, Term{x, 1})
	v2 := p.columns()
	if v2.m != 2 || v2.n != 2 {
		t.Fatalf("rebuilt view is %dx%d, want 2x2", v2.m, v2.n)
	}
}

// TestKernelAutoSelection checks the size heuristic: small problems stay
// dense, large ones go sparse, explicit choices always win.
func TestKernelAutoSelection(t *testing.T) {
	small := NewProblem("small")
	small.AddCol("x", 0, 1, 1)
	var o Options
	if k := o.kernelFor(small); k != KernelDense {
		t.Fatalf("auto kernel for tiny problem = %v, want dense", k)
	}
	o.Kernel = KernelSparse
	if k := o.kernelFor(small); k != KernelSparse {
		t.Fatalf("explicit sparse overridden: %v", k)
	}
}
