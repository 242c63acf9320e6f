package lp

import (
	"math"
	"math/rand"
	"testing"

	"sos/internal/telemetry"
)

func solveOK(t *testing.T, p *Problem) *Solution {
	t.Helper()
	sol, err := p.Solve(nil)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v, want optimal", sol.Status)
	}
	return sol
}

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-6 }

// solveBounded solves, from scratch, a clone of p whose listed columns take
// the given bounds: the reference a resolver's solve under the same
// overrides must match.
func solveBounded(p *Problem, opts *Options, bounds map[ColID][2]float64) (*Solution, error) {
	q := p.Clone()
	for c, b := range bounds {
		q.SetBounds(c, b[0], b[1])
	}
	return q.Solve(opts)
}

func TestSimpleLe(t *testing.T) {
	// max x+y s.t. x+2y<=4, 3x+y<=6, x,y>=0  -> min -(x+y); opt (1.6, 1.2), obj -2.8.
	p := NewProblem("simple")
	x := p.AddCol("x", 0, math.Inf(1), -1)
	y := p.AddCol("y", 0, math.Inf(1), -1)
	p.AddRow("r1", Le, 4, Term{x, 1}, Term{y, 2})
	p.AddRow("r2", Le, 6, Term{x, 3}, Term{y, 1})
	sol := solveOK(t, p)
	if !approx(sol.Obj, -2.8) {
		t.Errorf("obj = %g, want -2.8", sol.Obj)
	}
	if !approx(sol.X[x], 1.6) || !approx(sol.X[y], 1.2) {
		t.Errorf("x=%g y=%g, want 1.6 1.2", sol.X[x], sol.X[y])
	}
}

func TestEqualityAndGe(t *testing.T) {
	// min 2x+3y s.t. x+y=10, x>=3, y>=2  -> x=8,y=2, obj 22.
	p := NewProblem("eq")
	x := p.AddCol("x", 3, math.Inf(1), 2)
	y := p.AddCol("y", 2, math.Inf(1), 3)
	p.AddRow("sum", Eq, 10, Term{x, 1}, Term{y, 1})
	sol := solveOK(t, p)
	if !approx(sol.Obj, 22) {
		t.Errorf("obj = %g, want 22", sol.Obj)
	}
}

func TestGeRow(t *testing.T) {
	// min x+y s.t. x+y>=5, x<=3 -> e.g. x=3,y=2 or x=0,y=5; obj 5 either way.
	p := NewProblem("ge")
	x := p.AddCol("x", 0, 3, 1)
	y := p.AddCol("y", 0, math.Inf(1), 1)
	p.AddRow("cover", Ge, 5, Term{x, 1}, Term{y, 1})
	sol := solveOK(t, p)
	if !approx(sol.Obj, 5) {
		t.Errorf("obj = %g, want 5", sol.Obj)
	}
}

func TestUpperBoundsHandledWithoutRows(t *testing.T) {
	// max 3x+2y, x<=2, y<=3 (bounds only), x+y<=4 -> x=2,y=2, obj -10.
	p := NewProblem("ub")
	x := p.AddCol("x", 0, 2, -3)
	y := p.AddCol("y", 0, 3, -2)
	p.AddRow("cap", Le, 4, Term{x, 1}, Term{y, 1})
	sol := solveOK(t, p)
	if !approx(sol.Obj, -10) || !approx(sol.X[x], 2) || !approx(sol.X[y], 2) {
		t.Errorf("got obj=%g x=%g y=%g, want -10 2 2", sol.Obj, sol.X[x], sol.X[y])
	}
}

func TestInfeasible(t *testing.T) {
	p := NewProblem("inf")
	x := p.AddCol("x", 0, 1, 0)
	p.AddRow("impossible", Ge, 2, Term{x, 1})
	sol, err := p.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Infeasible {
		t.Errorf("status = %v, want infeasible", sol.Status)
	}
}

func TestInfeasibleEquality(t *testing.T) {
	p := NewProblem("infeq")
	x := p.AddCol("x", 0, 10, 0)
	y := p.AddCol("y", 0, 10, 0)
	p.AddRow("a", Eq, 5, Term{x, 1}, Term{y, 1})
	p.AddRow("b", Eq, 8, Term{x, 1}, Term{y, 1})
	sol, err := p.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Infeasible {
		t.Errorf("status = %v, want infeasible", sol.Status)
	}
}

func TestUnbounded(t *testing.T) {
	p := NewProblem("unb")
	x := p.AddCol("x", 0, math.Inf(1), -1)
	y := p.AddCol("y", 0, math.Inf(1), 0)
	p.AddRow("r", Le, 3, Term{y, 1}) // x unconstrained upward
	_ = x
	sol, err := p.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Unbounded {
		t.Errorf("status = %v, want unbounded", sol.Status)
	}
}

func TestFixedVariable(t *testing.T) {
	// lb == ub variables must be honored and never pivot.
	p := NewProblem("fixed")
	x := p.AddCol("x", 2, 2, 1)
	y := p.AddCol("y", 0, math.Inf(1), 1)
	p.AddRow("r", Ge, 5, Term{x, 1}, Term{y, 1})
	sol := solveOK(t, p)
	if !approx(sol.X[x], 2) || !approx(sol.X[y], 3) {
		t.Errorf("x=%g y=%g, want 2 3", sol.X[x], sol.X[y])
	}
}

func TestNegativeLowerBound(t *testing.T) {
	// min x s.t. x >= -5 (bound) and x+y >= -2, y in [0,1].
	p := NewProblem("neg")
	x := p.AddCol("x", -5, math.Inf(1), 1)
	y := p.AddCol("y", 0, 1, 0)
	p.AddRow("r", Ge, -2, Term{x, 1}, Term{y, 1})
	sol := solveOK(t, p)
	if !approx(sol.X[x], -3) {
		t.Errorf("x=%g, want -3", sol.X[x])
	}
}

// TestResolverOverridesBounds: a resolver's bound override holds for its
// own solve only. The next Solve(nil) is back on the problem's bounds, and
// the problem itself is never changed.
func TestResolverOverridesBounds(t *testing.T) {
	p := NewProblem("override")
	x := p.AddCol("x", 0, 1, -1)
	p.AddRow("r", Le, 10, Term{x, 1})
	r, err := p.NewResolver(nil)
	if err != nil {
		t.Fatal(err)
	}
	sol := r.Solve(map[ColID][2]float64{x: {0, 0}})
	if sol.Status != Optimal || !approx(sol.X[x], 0) {
		t.Errorf("override not honored: %v x=%g", sol.Status, sol.X[x])
	}
	sol = r.Solve(nil)
	if sol.Status != Optimal || !approx(sol.X[x], 1) {
		t.Errorf("override outlived its solve: %v x=%g", sol.Status, sol.X[x])
	}
	if c := p.Col(x); c.Lb != 0 || c.Ub != 1 {
		t.Errorf("problem mutated by override: bounds [%g, %g]", c.Lb, c.Ub)
	}
}

// TestSolveIsFirstResolverSolve: a one-shot Solve is the first solve of a
// resolver, so given a collector it counts what any first solve counts:
// one cold solve, no warm one.
func TestSolveIsFirstResolverSolve(t *testing.T) {
	p := NewProblem("one-shot")
	x := p.AddCol("x", 0, 1, -1)
	p.AddRow("r", Le, 10, Term{x, 1})
	tel := telemetry.New(nil)
	sol, err := p.Solve(&Options{Telemetry: tel})
	if err != nil || sol.Status != Optimal {
		t.Fatalf("solve: %v %v", err, sol.Status)
	}
	if cold, warm := tel.Get(telemetry.CtrLPCold), tel.Get(telemetry.CtrLPWarm); cold != 1 || warm != 0 {
		t.Errorf("counted %d cold and %d warm solves, want 1 and 0", cold, warm)
	}
}

func TestDegenerateDiet(t *testing.T) {
	// Classic diet-style LP with redundant constraints (degenerate basis).
	p := NewProblem("diet")
	a := p.AddCol("a", 0, math.Inf(1), 2)
	b := p.AddCol("b", 0, math.Inf(1), 3)
	p.AddRow("protein", Ge, 10, Term{a, 1}, Term{b, 2})
	p.AddRow("protein2", Ge, 10, Term{a, 1}, Term{b, 2}) // duplicate row
	p.AddRow("fat", Ge, 5, Term{a, 1}, Term{b, 1})
	sol := solveOK(t, p)
	// Optimum: b=5, a=0 -> obj 15.
	if !approx(sol.Obj, 15) {
		t.Errorf("obj = %g, want 15", sol.Obj)
	}
}

func TestMergeDuplicateTerms(t *testing.T) {
	p := NewProblem("merge")
	x := p.AddCol("x", 0, math.Inf(1), 1)
	p.AddRow("r", Ge, 6, Term{x, 1}, Term{x, 2}) // 3x >= 6
	sol := solveOK(t, p)
	if !approx(sol.X[x], 2) {
		t.Errorf("x=%g, want 2", sol.X[x])
	}
}

func TestValidateErrors(t *testing.T) {
	p := NewProblem("bad")
	p.AddCol("x", math.Inf(-1), 0, 1)
	if _, err := p.Solve(nil); err == nil {
		t.Error("expected error for -inf lower bound")
	}
	p2 := NewProblem("bad2")
	p2.AddCol("x", 1, 0, 1)
	if _, err := p2.Solve(nil); err == nil {
		t.Error("expected error for lb > ub")
	}
	p3 := NewProblem("bad3")
	p3.AddCol("x", 0, 1, 1)
	p3.AddRow("r", Le, 1, Term{ColID(7), 1})
	if _, err := p3.Solve(nil); err == nil {
		t.Error("expected error for unknown column")
	}
}

// feasCheck verifies a solution satisfies every row and bound of p.
func feasCheck(t *testing.T, p *Problem, x []float64) {
	t.Helper()
	const tol = 1e-6
	for j := 0; j < p.NumCols(); j++ {
		c := p.Col(ColID(j))
		if x[j] < c.Lb-tol || x[j] > c.Ub+tol {
			t.Fatalf("col %s = %g outside [%g,%g]", c.Name, x[j], c.Lb, c.Ub)
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
				t.Fatalf("row %s: %g > %g", r.Name, lhs, r.Rhs)
			}
		case Ge:
			if lhs < r.Rhs-tol {
				t.Fatalf("row %s: %g < %g", r.Name, lhs, r.Rhs)
			}
		case Eq:
			if math.Abs(lhs-r.Rhs) > tol {
				t.Fatalf("row %s: %g != %g", r.Name, lhs, r.Rhs)
			}
		}
	}
}

// TestRandomFeasibility builds random LPs with a known feasible point and
// checks the solver (a) reports optimal, (b) returns a feasible solution,
// and (c) achieves an objective no worse than the known point.
func TestRandomFeasibility(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(8)
		m := 1 + rng.Intn(10)
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
			obj := rng.NormFloat64()
			p.AddCol("", lb, ub, obj)
			ref[j] = lb + rng.Float64()*math.Min(width, 10)
		}
		for i := 0; i < m; i++ {
			terms := make([]Term, 0, n)
			lhs := 0.0
			for j := 0; j < n; j++ {
				if rng.Intn(2) == 0 {
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
		sol, err := p.Solve(nil)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		switch sol.Status {
		case Optimal:
			feasCheck(t, p, sol.X)
			refObj := 0.0
			for j := 0; j < n; j++ {
				refObj += p.Col(ColID(j)).Obj * ref[j]
			}
			if sol.Obj > refObj+1e-6 {
				t.Fatalf("trial %d: solver obj %g worse than known feasible %g", trial, sol.Obj, refObj)
			}
		case Unbounded:
			// Possible when some improving ray exists; acceptable.
		default:
			t.Fatalf("trial %d: status %v for a feasible problem", trial, sol.Status)
		}
	}
}

// TestRandomInfeasible builds obviously contradictory problems.
func TestRandomInfeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(5)
		p := NewProblem("infrand")
		var terms []Term
		total := 0.0
		for j := 0; j < n; j++ {
			ub := 1 + rng.Float64()*4
			p.AddCol("", 0, ub, rng.NormFloat64())
			terms = append(terms, Term{ColID(j), 1})
			total += ub
		}
		p.AddRow("impossible", Ge, total+1+rng.Float64()*5, terms...)
		sol, err := p.Solve(nil)
		if err != nil {
			t.Fatal(err)
		}
		if sol.Status != Infeasible {
			t.Fatalf("trial %d: status %v, want infeasible", trial, sol.Status)
		}
	}
}
