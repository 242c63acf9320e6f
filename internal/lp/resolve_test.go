package lp

import (
	"math"
	"math/rand"
	"testing"
)

// randomProblem builds a random bounded LP shaped like branch-and-bound
// relaxations: binary-ish columns, a few continuous ones, Le/Ge/Eq rows.
func randomProblem(rng *rand.Rand) (*Problem, []ColID) {
	n := 4 + rng.Intn(10)
	p := NewProblem("rnd")
	var bins []ColID
	for j := 0; j < n; j++ {
		if rng.Intn(4) == 0 {
			p.AddCol("", 0, 2+rng.Float64()*3, float64(rng.Intn(9)-4))
		} else {
			bins = append(bins, p.AddCol("", 0, 1, float64(rng.Intn(21)-10)))
		}
	}
	nrows := 1 + rng.Intn(4)
	for i := 0; i < nrows; i++ {
		terms := make([]Term, 0, n)
		total := 0.0
		for j := 0; j < n; j++ {
			c := float64(rng.Intn(7) - 2)
			if c != 0 {
				terms = append(terms, Term{Col: ColID(j), Coef: c})
			}
			if c > 0 {
				total += c
			}
		}
		if len(terms) == 0 {
			continue
		}
		switch rng.Intn(5) {
		case 0:
			p.AddRow("", Ge, total*0.2*rng.Float64(), terms...)
		case 1:
			p.AddRow("", Eq, total*0.4*rng.Float64(), terms...)
		default:
			p.AddRow("", Le, total*(0.3+0.5*rng.Float64()), terms...)
		}
	}
	return p, bins
}

// mutateBounds evolves a bound set the way branch and bound does: one or
// two binaries get fixed, re-fixed, or released per step, so consecutive
// solves differ by a small delta and the resolver's warm path is
// exercised (wholesale re-randomization would exceed its delta gate and
// turn every step into a cold rebuild).
func mutateBounds(rng *rand.Rand, bins []ColID, cur map[ColID][2]float64) map[ColID][2]float64 {
	b := map[ColID][2]float64{}
	for c, v := range cur {
		b[c] = v
	}
	for n := 1 + rng.Intn(2); n > 0; n-- {
		c := bins[rng.Intn(len(bins))]
		switch rng.Intn(3) {
		case 0:
			b[c] = [2]float64{0, 0}
		case 1:
			b[c] = [2]float64{1, 1}
		default:
			delete(b, c)
		}
	}
	return b
}

// TestResolverMatchesCold drives a Resolver through long random bound
// sequences and cross-checks every re-solve against a fresh cold solve.
func TestResolverMatchesCold(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		p, bins := randomProblem(rng)
		if len(bins) == 0 {
			continue
		}
		r, err := p.NewResolver(nil)
		if err != nil {
			t.Fatal(err)
		}
		bounds := map[ColID][2]float64{}
		warmEligible := 0 // steps whose predecessor left a reusable basis
		for step := 0; step < 25; step++ {
			bounds = mutateBounds(rng, bins, bounds)
			warm := r.Solve(bounds)
			cold, err := solveBounded(p, nil, bounds)
			if err != nil {
				t.Fatal(err)
			}
			if warm.Status != cold.Status {
				t.Fatalf("trial %d step %d: warm %v vs cold %v (bounds %v)",
					trial, step, warm.Status, cold.Status, bounds)
			}
			if warm.Status == Optimal && math.Abs(warm.Obj-cold.Obj) > 1e-6 {
				t.Fatalf("trial %d step %d: warm obj %g vs cold %g (bounds %v)",
					trial, step, warm.Obj, cold.Obj, bounds)
			}
			if warm.Status == Optimal {
				checkFeasible(t, p, bounds, warm.X)
				warmEligible++
			}
		}
		st := r.Stats()
		if warmEligible > 1 && st.Warm == 0 {
			t.Errorf("trial %d: resolver never took the warm path (%+v)", trial, st)
		}
	}
}

// checkFeasible verifies x satisfies all rows and the overridden bounds.
func checkFeasible(t *testing.T, p *Problem, bounds map[ColID][2]float64, x []float64) {
	t.Helper()
	const tol = 1e-6
	for j := 0; j < p.NumCols(); j++ {
		lb, ub := p.Col(ColID(j)).Lb, p.Col(ColID(j)).Ub
		if b, ok := bounds[ColID(j)]; ok {
			lb, ub = b[0], b[1]
		}
		if x[j] < lb-tol || x[j] > ub+tol {
			t.Fatalf("col %d value %g outside [%g,%g]", j, x[j], lb, ub)
		}
	}
	for i := 0; i < p.NumRows(); i++ {
		r := p.Row(i)
		lhs := 0.0
		for _, tm := range r.Terms {
			lhs += tm.Coef * x[tm.Col]
		}
		switch r.Sense {
		case Le:
			if lhs > r.Rhs+tol {
				t.Fatalf("row %d: %g > %g", i, lhs, r.Rhs)
			}
		case Ge:
			if lhs < r.Rhs-tol {
				t.Fatalf("row %d: %g < %g", i, lhs, r.Rhs)
			}
		case Eq:
			if math.Abs(lhs-r.Rhs) > tol {
				t.Fatalf("row %d: %g != %g", i, lhs, r.Rhs)
			}
		}
	}
}

// TestResolverInfeasibleAndBack checks the resolver recovers warm after an
// infeasible bound set, and that reverting overrides restores the base
// optimum.
func TestResolverInfeasibleAndBack(t *testing.T) {
	// min -a-b s.t. a+b <= 1, binaries: optimum -1.
	p := NewProblem("flip")
	a := p.AddCol("a", 0, 1, -1)
	b := p.AddCol("b", 0, 1, -1)
	p.AddRow("cap", Le, 1, Term{Col: a, Coef: 1}, Term{Col: b, Coef: 1})
	r, err := p.NewResolver(nil)
	if err != nil {
		t.Fatal(err)
	}
	base := r.Solve(nil)
	if base.Status != Optimal || math.Abs(base.Obj-(-1)) > 1e-9 {
		t.Fatalf("base: %v obj %g", base.Status, base.Obj)
	}
	// Dive one fixing at a time, as branch and bound does (single-column
	// deltas stay inside the warm gate).
	afix := r.Solve(map[ColID][2]float64{a: {1, 1}})
	if afix.Status != Optimal || math.Abs(afix.Obj-(-1)) > 1e-9 {
		t.Fatalf("a-fixed: %v obj %g", afix.Status, afix.Obj)
	}
	inf := r.Solve(map[ColID][2]float64{a: {1, 1}, b: {1, 1}})
	if inf.Status != Infeasible {
		t.Fatalf("both-fixed: %v, want infeasible", inf.Status)
	}
	again := r.Solve(map[ColID][2]float64{a: {1, 1}})
	if again.Status != Optimal || math.Abs(again.Obj-(-1)) > 1e-9 {
		t.Fatalf("back to a-fixed: %v obj %g", again.Status, again.Obj)
	}
	back := r.Solve(map[ColID][2]float64{})
	if back.Status != Optimal || math.Abs(back.Obj-(-1)) > 1e-9 {
		t.Fatalf("reverted: %v obj %g", back.Status, back.Obj)
	}
	if st := r.Stats(); st.Warm < 3 {
		t.Errorf("expected warm re-solves through the infeasible dip, got %+v", st)
	}
}

// TestResolverReusesBuffers documents the aliasing contract: the Solution
// returned by Solve is overwritten by the next call.
func TestResolverReusesBuffers(t *testing.T) {
	p := NewProblem("alias")
	a := p.AddCol("a", 0, 1, -1)
	p.AddRow("r", Le, 1, Term{Col: a, Coef: 1})
	r, err := p.NewResolver(nil)
	if err != nil {
		t.Fatal(err)
	}
	s1 := r.Solve(nil)
	if s1.X[a] != 1 {
		t.Fatalf("base solve: %v", s1.X)
	}
	s2 := r.Solve(map[ColID][2]float64{a: {0, 0}})
	if s1 != s2 {
		t.Fatalf("expected the same reused *Solution, got distinct pointers")
	}
	if s2.X[a] != 0 {
		t.Fatalf("re-solve: %v", s2.X)
	}
}

// TestResolverRefactorDrift runs far more warm solves than refactorEvery
// to exercise the periodic rebuild path.
func TestResolverRefactorDrift(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	p, bins := randomProblem(rng)
	for len(bins) < 3 {
		p, bins = randomProblem(rng)
	}
	r, err := p.NewResolver(nil)
	if err != nil {
		t.Fatal(err)
	}
	bounds := map[ColID][2]float64{}
	for step := 0; step < refactorEvery+50; step++ {
		bounds = mutateBounds(rng, bins, bounds)
		warm := r.Solve(bounds)
		cold, err := solveBounded(p, nil, bounds)
		if err != nil {
			t.Fatal(err)
		}
		if warm.Status != cold.Status ||
			(warm.Status == Optimal && math.Abs(warm.Obj-cold.Obj) > 1e-6) {
			t.Fatalf("step %d: warm (%v, %g) vs cold (%v, %g)",
				step, warm.Status, warm.Obj, cold.Status, cold.Obj)
		}
	}
	if st := r.Stats(); st.Cold < 2 {
		t.Errorf("expected a periodic refactorization, got %+v", st)
	}
}
