package lp

import (
	"math"
	"testing"
)

func TestPresolveFixedColumnSubstitution(t *testing.T) {
	// x fixed at 2 contributes 2 to the row and 6 to the objective.
	p := NewProblem("fix")
	x := p.AddCol("x", 2, 2, 3)
	y := p.AddCol("y", 0, 10, 1)
	p.AddRow("r", Ge, 5, Term{x, 1}, Term{y, 1})
	pr := runPresolve(p)
	if pr.infeasible {
		t.Fatal("unexpected infeasible")
	}
	if pr.colsCut != 1 || pr.colMap[x] != -1 {
		t.Fatalf("colsCut=%d colMap[x]=%d, want x eliminated", pr.colsCut, pr.colMap[x])
	}
	if pr.objOff != 6 {
		t.Fatalf("objOff=%g, want 6", pr.objOff)
	}
	sol, err := p.Solve(&Options{Presolve: true})
	if err != nil || sol.Status != Optimal {
		t.Fatalf("solve: %v %v", err, sol.Status)
	}
	// min 3x+y with x=2, y>=3 -> obj 9.
	if !approx(sol.Obj, 9) || !approx(sol.X[x], 2) || !approx(sol.X[y], 3) {
		t.Fatalf("obj=%g x=%g y=%g, want 9 2 3", sol.Obj, sol.X[x], sol.X[y])
	}
}

func TestPresolveSingletonRowTightensBound(t *testing.T) {
	// -2x <= -6 is x >= 3: the row disappears into the lower bound.
	p := NewProblem("singleton")
	x := p.AddCol("x", 0, 10, 1)
	p.AddRow("r", Le, -6, Term{x, -2})
	pr := runPresolve(p)
	if pr.rowsCut != 1 {
		t.Fatalf("rowsCut=%d, want 1", pr.rowsCut)
	}
	if pr.lb[x] != 3 {
		t.Fatalf("tightened lb=%g, want 3", pr.lb[x])
	}
	sol, err := p.Solve(&Options{Presolve: true})
	if err != nil || sol.Status != Optimal || !approx(sol.Obj, 3) {
		t.Fatalf("solve: %v %v obj=%g, want optimal 3", err, sol.Status, sol.Obj)
	}
}

func TestPresolveSingletonEqualityFixes(t *testing.T) {
	// 4x = 8 fixes x = 2, which then eliminates the column entirely.
	p := NewProblem("eqfix")
	x := p.AddCol("x", 0, 10, 5)
	y := p.AddCol("y", 0, 4, -1)
	p.AddRow("pin", Eq, 8, Term{x, 4})
	p.AddRow("link", Le, 6, Term{x, 1}, Term{y, 1})
	sol, err := p.Solve(&Options{Presolve: true})
	if err != nil || sol.Status != Optimal {
		t.Fatalf("solve: %v %v", err, sol.Status)
	}
	if !approx(sol.X[x], 2) || !approx(sol.X[y], 4) || !approx(sol.Obj, 6) {
		t.Fatalf("x=%g y=%g obj=%g, want 2 4 6", sol.X[x], sol.X[y], sol.Obj)
	}
}

func TestPresolveRedundantRowDrop(t *testing.T) {
	// x+y <= 100 can never bind inside the [0,2]^2 box.
	p := NewProblem("redundant")
	x := p.AddCol("x", 0, 2, -1)
	y := p.AddCol("y", 0, 2, -1)
	p.AddRow("loose", Le, 100, Term{x, 1}, Term{y, 1})
	pr := runPresolve(p)
	if pr.rowsCut != 1 {
		t.Fatalf("rowsCut=%d, want 1", pr.rowsCut)
	}
	sol, err := p.Solve(&Options{Presolve: true})
	if err != nil || sol.Status != Optimal || !approx(sol.Obj, -4) {
		t.Fatalf("solve: %v %v obj=%g, want optimal -4", err, sol.Status, sol.Obj)
	}
}

func TestPresolveDetectsInfeasibleActivity(t *testing.T) {
	// Minimum activity of x+y on [2,3]^2 is 4 > 3: infeasible before any
	// simplex iteration.
	p := NewProblem("actinf")
	x := p.AddCol("x", 2, 3, 1)
	y := p.AddCol("y", 2, 3, 1)
	p.AddRow("cap", Le, 3, Term{x, 1}, Term{y, 1})
	pr := runPresolve(p)
	if !pr.infeasible {
		t.Fatal("presolve missed activity-bound infeasibility")
	}
	sol, err := p.Solve(&Options{Presolve: true})
	if err != nil || sol.Status != Infeasible {
		t.Fatalf("solve: %v %v, want infeasible", err, sol.Status)
	}
}

func TestPresolveCrossedBounds(t *testing.T) {
	// A branch override that crosses a column's bounds is caught by the
	// presolve layer, before any kernel runs.
	p := NewProblem("crossed")
	x := p.AddCol("x", 0, 10, 1)
	p.AddRow("r", Le, 10, Term{x, 1})
	r, err := p.NewResolver(&Options{Presolve: true})
	if err != nil {
		t.Fatal(err)
	}
	if sol := r.Solve(map[ColID][2]float64{x: {5, 3}}); sol.Status != Infeasible {
		t.Fatalf("solve: %v, want infeasible", sol.Status)
	}
	if st := r.Stats(); st.PresolveCut != 1 || st.Cold != 0 {
		t.Fatalf("stats %+v, want the crossed bounds answered by presolve alone", st)
	}
}

func TestPresolveTranslateOverrides(t *testing.T) {
	p := NewProblem("translate")
	fixed := p.AddCol("fixed", 1, 1, 1)
	free := p.AddCol("free", 0, 10, 1)
	p.AddRow("r", Ge, 2, Term{fixed, 1}, Term{free, 1})
	pr := runPresolve(p)
	if pr.colMap[fixed] != -1 || pr.colMap[free] < 0 {
		t.Fatalf("unexpected reduction: colMap=%v", pr.colMap)
	}

	// Override on the surviving column maps through; a compatible override
	// on the eliminated column is dropped.
	dst, conflict := pr.translate(map[ColID][2]float64{
		fixed: {0, 2},
		free:  {3, 8},
	}, nil)
	if conflict {
		t.Fatal("compatible overrides reported as conflict")
	}
	if len(dst) != 1 {
		t.Fatalf("translated %d overrides, want 1", len(dst))
	}
	got := dst[ColID(pr.colMap[free])]
	if got[0] != 3 || got[1] != 8 {
		t.Fatalf("translated bounds %v, want [3 8]", got)
	}

	// Override contradicting the fixed value is an immediate conflict.
	if _, conflict = pr.translate(map[ColID][2]float64{fixed: {2, 3}}, dst); !conflict {
		t.Fatal("override off the fixed value not flagged")
	}
}

func TestPresolveUnboundedPassesThrough(t *testing.T) {
	p := NewProblem("unbounded")
	x := p.AddCol("x", 0, math.Inf(1), -1)
	y := p.AddCol("y", 1, 1, 2) // fixed, to engage a reduction
	p.AddRow("r", Ge, 0, Term{x, 1}, Term{y, 1})
	sol, err := p.Solve(&Options{Presolve: true})
	if err != nil || sol.Status != Unbounded {
		t.Fatalf("solve: %v %v, want unbounded", err, sol.Status)
	}
}

func TestPresolveEverythingEliminated(t *testing.T) {
	// All columns fixed, all rows satisfied: the reduced problem is empty
	// and postsolve reconstructs the full solution.
	p := NewProblem("empty")
	x := p.AddCol("x", 3, 3, 2)
	y := p.AddCol("y", 1, 1, -1)
	p.AddRow("r", Le, 10, Term{x, 1}, Term{y, 2})
	sol, err := p.Solve(&Options{Presolve: true})
	if err != nil || sol.Status != Optimal {
		t.Fatalf("solve: %v %v", err, sol.Status)
	}
	if !approx(sol.Obj, 5) || !approx(sol.X[x], 3) || !approx(sol.X[y], 1) {
		t.Fatalf("obj=%g x=%g y=%g, want 5 3 1", sol.Obj, sol.X[x], sol.X[y])
	}
	if len(sol.ReducedCosts) != 2 {
		t.Fatalf("reduced costs %v, want length 2", sol.ReducedCosts)
	}
}
