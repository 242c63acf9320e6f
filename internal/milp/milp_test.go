package milp

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"

	"sos/internal/leakcheck"
	"sos/internal/lp"
)

func binCol(p *lp.Problem, name string, obj float64) lp.ColID {
	return p.AddCol(name, 0, 1, obj)
}

func solveOK(t *testing.T, s *Solver, opts *Options) *Solution {
	t.Helper()
	sol, err := s.Solve(context.Background(), opts)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	return sol
}

func TestKnapsack(t *testing.T) {
	// max 10a+13b+7c s.t. 3a+4b+2c<=6, binary -> a=0,b=1,c=1 (20) vs a=1,c=1 (17)
	// vs a=1,b=... 3+4>6. Optimum 20.
	p := lp.NewProblem("knap")
	a := binCol(p, "a", -10)
	b := binCol(p, "b", -13)
	c := binCol(p, "c", -7)
	p.AddRow("cap", lp.Le, 6, lp.Term{Col: a, Coef: 3}, lp.Term{Col: b, Coef: 4}, lp.Term{Col: c, Coef: 2})
	sol := solveOK(t, New(p, []lp.ColID{a, b, c}), nil)
	if sol.Status != Optimal {
		t.Fatalf("status %v", sol.Status)
	}
	if math.Abs(sol.Obj-(-20)) > 1e-6 {
		t.Errorf("obj = %g, want -20", sol.Obj)
	}
	if math.Round(sol.X[a]) != 0 || math.Round(sol.X[b]) != 1 || math.Round(sol.X[c]) != 1 {
		t.Errorf("x = %v, want [0 1 1]", sol.X)
	}
}

func TestIntegerInfeasible(t *testing.T) {
	// x binary, 0.4 <= x <= 0.6 via rows: LP feasible, no integer point.
	p := lp.NewProblem("intinf")
	x := binCol(p, "x", 1)
	p.AddRow("lo", lp.Ge, 0.4, lp.Term{Col: x, Coef: 1})
	p.AddRow("hi", lp.Le, 0.6, lp.Term{Col: x, Coef: 1})
	sol := solveOK(t, New(p, []lp.ColID{x}), nil)
	if sol.Status != Infeasible {
		t.Errorf("status = %v, want infeasible", sol.Status)
	}
}

func TestMixedIntegerContinuous(t *testing.T) {
	// min y s.t. y >= 1.5 - x, y >= x - 0.5, x binary, y >= 0.
	// x=1 -> y >= 0.5; x=0 -> y >= 1.5. Optimum y=0.5 with x=1.
	p := lp.NewProblem("mix")
	x := binCol(p, "x", 0)
	y := p.AddCol("y", 0, math.Inf(1), 1)
	p.AddRow("r1", lp.Ge, 1.5, lp.Term{Col: y, Coef: 1}, lp.Term{Col: x, Coef: 1})
	p.AddRow("r2", lp.Ge, -0.5, lp.Term{Col: y, Coef: 1}, lp.Term{Col: x, Coef: -1})
	sol := solveOK(t, New(p, []lp.ColID{x}), nil)
	if sol.Status != Optimal || math.Abs(sol.Obj-0.5) > 1e-6 {
		t.Errorf("status=%v obj=%g, want optimal 0.5", sol.Status, sol.Obj)
	}
	if math.Round(sol.X[x]) != 1 {
		t.Errorf("x = %g, want 1", sol.X[x])
	}
}

func TestIncumbentPruning(t *testing.T) {
	// Supplying the optimal solution as incumbent must still return it.
	p := lp.NewProblem("inc")
	a := binCol(p, "a", -5)
	b := binCol(p, "b", -4)
	p.AddRow("cap", lp.Le, 1, lp.Term{Col: a, Coef: 1}, lp.Term{Col: b, Coef: 1})
	inc := []float64{1, 0}
	sol := solveOK(t, New(p, []lp.ColID{a, b}), &Options{Incumbent: inc})
	if sol.Status != Optimal || math.Abs(sol.Obj-(-5)) > 1e-6 {
		t.Errorf("status=%v obj=%g, want optimal -5", sol.Status, sol.Obj)
	}
}

func TestNodeLimit(t *testing.T) {
	// A 12-item equality knapsack that needs branching; with MaxNodes 1 we
	// should get NoSolution or Feasible, never a false Optimal claim,
	// unless the root LP happened to be integral.
	p := lp.NewProblem("lim")
	var cols []lp.ColID
	terms := make([]lp.Term, 0, 12)
	for i := 0; i < 12; i++ {
		c := binCol(p, "", -float64(1+i%3))
		cols = append(cols, c)
		terms = append(terms, lp.Term{Col: c, Coef: float64(2 + i%5)})
	}
	p.AddRow("eq", lp.Eq, 7, terms...)
	sol := solveOK(t, New(p, cols), &Options{MaxNodes: 1})
	if sol.Status == Optimal && sol.Nodes > 1 {
		t.Errorf("node limit not honored: %d nodes", sol.Nodes)
	}
}

func TestTimeLimitAndContext(t *testing.T) {
	p := lp.NewProblem("ctx")
	var cols []lp.ColID
	terms := make([]lp.Term, 0, 20)
	for i := 0; i < 20; i++ {
		c := binCol(p, "", -float64(1+i%7))
		cols = append(cols, c)
		terms = append(terms, lp.Term{Col: c, Coef: 1 + float64(i%4)*0.5})
	}
	p.AddRow("cap", lp.Le, 9.25, terms...)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already canceled: search must stop immediately
	sol, err := New(p, cols).Solve(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Nodes != 0 {
		t.Errorf("canceled context explored %d nodes", sol.Nodes)
	}
	if sol.Status != NoSolution {
		t.Errorf("status = %v, want no-solution", sol.Status)
	}

	sol2 := solveOK(t, New(p, cols), &Options{TimeLimit: time.Minute})
	if sol2.Status != Optimal {
		t.Errorf("status = %v, want optimal", sol2.Status)
	}
}

func TestOnIncumbentCallback(t *testing.T) {
	p := lp.NewProblem("cb")
	a := binCol(p, "a", -3)
	b := binCol(p, "b", -2)
	p.AddRow("cap", lp.Le, 1.5, lp.Term{Col: a, Coef: 1}, lp.Term{Col: b, Coef: 1})
	calls := 0
	lastObj := math.Inf(1)
	opts := &Options{OnIncumbent: func(obj float64, x []float64) {
		calls++
		if obj >= lastObj {
			t.Errorf("non-improving incumbent callback: %g after %g", obj, lastObj)
		}
		lastObj = obj
	}}
	sol := solveOK(t, New(p, []lp.ColID{a, b}), opts)
	if sol.Status != Optimal {
		t.Fatalf("status %v", sol.Status)
	}
	if calls == 0 {
		t.Error("OnIncumbent never called")
	}
}

func TestUnboundedRelaxation(t *testing.T) {
	p := lp.NewProblem("unb")
	x := p.AddCol("x", 0, math.Inf(1), -1)
	b := binCol(p, "b", 0)
	p.AddRow("r", lp.Le, 1, lp.Term{Col: b, Coef: 1})
	_ = x
	sol := solveOK(t, New(p, []lp.ColID{b}), nil)
	if sol.Status != Unbounded {
		t.Errorf("status = %v, want unbounded", sol.Status)
	}
}

// TestRandomKnapsacksAgainstBruteForce cross-checks B&B optima against
// exhaustive enumeration on random 0/1 knapsacks with random extra rows.
func TestRandomKnapsacksAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 60; trial++ {
		n := 3 + rng.Intn(8) // up to 10 binaries -> brute force 1024
		p := lp.NewProblem("rk")
		obj := make([]float64, n)
		var cols []lp.ColID
		for j := 0; j < n; j++ {
			obj[j] = float64(rng.Intn(21) - 10)
			cols = append(cols, binCol(p, "", obj[j]))
		}
		nrows := 1 + rng.Intn(3)
		type rowData struct {
			coef  []float64
			rhs   float64
			sense lp.Sense
		}
		var rows []rowData
		for i := 0; i < nrows; i++ {
			coef := make([]float64, n)
			terms := make([]lp.Term, 0, n)
			total := 0.0
			for j := 0; j < n; j++ {
				coef[j] = float64(rng.Intn(7) - 2)
				if coef[j] != 0 {
					terms = append(terms, lp.Term{Col: cols[j], Coef: coef[j]})
				}
				if coef[j] > 0 {
					total += coef[j]
				}
			}
			rhs := total * (0.3 + rng.Float64()*0.5)
			sense := lp.Le
			if rng.Intn(4) == 0 {
				sense = lp.Ge
				rhs = rhs * 0.5
			}
			rows = append(rows, rowData{coef, rhs, sense})
			p.AddRow("", sense, rhs, terms...)
		}

		// Brute force.
		bestBF := math.Inf(1)
		for mask := 0; mask < 1<<n; mask++ {
			ok := true
			for _, r := range rows {
				lhs := 0.0
				for j := 0; j < n; j++ {
					if mask&(1<<j) != 0 {
						lhs += r.coef[j]
					}
				}
				if (r.sense == lp.Le && lhs > r.rhs+1e-9) || (r.sense == lp.Ge && lhs < r.rhs-1e-9) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			v := 0.0
			for j := 0; j < n; j++ {
				if mask&(1<<j) != 0 {
					v += obj[j]
				}
			}
			if v < bestBF {
				bestBF = v
			}
		}

		sol := solveOK(t, New(p, cols), nil)
		if math.IsInf(bestBF, 1) {
			if sol.Status != Infeasible {
				t.Fatalf("trial %d: brute force infeasible but solver says %v (obj %g)", trial, sol.Status, sol.Obj)
			}
			continue
		}
		if sol.Status != Optimal {
			t.Fatalf("trial %d: status %v, want optimal", trial, sol.Status)
		}
		if math.Abs(sol.Obj-bestBF) > 1e-6 {
			t.Fatalf("trial %d: solver obj %g, brute force %g", trial, sol.Obj, bestBF)
		}
	}
}

// TestLPStatsCountPresolveCut: a node answered by the LP presolve layer
// alone (its branching bound contradicts a presolve-tightened bound) must
// show up in Solution.LPStats like the warm and cold solves do. Presolve
// turns 2x ≤ 1 into x ≤ 0.5, so the root relaxation (x = 0.5, y = 1)
// branches on x and the x = 1 child is a presolve conflict.
func TestLPStatsCountPresolveCut(t *testing.T) {
	p := lp.NewProblem("presolve-cut")
	x := binCol(p, "x", -1)
	y := binCol(p, "y", -1)
	p.AddRow("half", lp.Le, 1, lp.Term{Col: x, Coef: 2})
	p.AddRow("sum", lp.Le, 1.5, lp.Term{Col: x, Coef: 1}, lp.Term{Col: y, Coef: 1})
	sol := solveOK(t, New(p, []lp.ColID{x, y}), &Options{LP: &lp.Options{Presolve: true}})
	if sol.Status != Optimal || !approxEq(sol.Obj, -1) {
		t.Fatalf("status %v obj %g, want optimal -1", sol.Status, sol.Obj)
	}
	if sol.LPStats.PresolveCut != 1 {
		t.Fatalf("LPStats %+v after %d nodes, want PresolveCut 1", sol.LPStats, sol.Nodes)
	}
}

// TestSolveMatchesEnumeration checks the search against an oracle that
// shares none of its LP or branching code: every 0/1 vector of a random
// problem of at most 13 columns, vetted by checkFeasible and priced by
// objOf. The search must prove the enumerated optimum (with its bound
// equal to its objective), or prove infeasibility exactly when no vector
// is feasible. buildRandomMIP writes only ≤ rows, which x = 0 always
// satisfies, so some trials add a ≥ row: either one paired with a ≤ row on
// the same terms that pins an integer sum to a half-integer (feasible for
// the LP, never for a 0/1 vector), or a random one that the ≤ rows may
// leave unsatisfiable.
func TestSolveMatchesEnumeration(t *testing.T) {
	leakcheck.Check(t)
	rng := rand.New(rand.NewSource(23))
	infeasible := 0
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(12)
		p, cols := buildRandomMIP(rng, n, 1+rng.Intn(5))
		switch trial % 4 {
		case 1:
			var terms []lp.Term
			for _, c := range cols {
				if rng.Intn(2) == 0 {
					terms = append(terms, lp.Term{Col: c, Coef: 2})
				}
			}
			if len(terms) > 0 {
				half := float64(2*rng.Intn(len(terms)) + 1)
				p.AddRow("odd-ge", lp.Ge, half, terms...)
				p.AddRow("odd-le", lp.Le, half, terms...)
			}
		case 3:
			addRandomGeRow(rng, p, cols, 0.2, 0.8)
		}
		s := New(p, cols)

		best := math.Inf(1)
		x := make([]float64, n)
		for mask := 0; mask < 1<<n; mask++ {
			for j, c := range cols {
				x[c] = float64(mask >> j & 1)
			}
			if s.checkFeasible(x) {
				best = math.Min(best, s.objOf(x))
			}
		}

		sol, err := s.Solve(context.Background(), &Options{})
		if err != nil {
			t.Fatal(err)
		}
		if math.IsInf(best, 1) {
			infeasible++
			if sol.Status != Infeasible {
				t.Fatalf("trial %d: no 0/1 vector is feasible, search says %v (obj %g)", trial, sol.Status, sol.Obj)
			}
			continue
		}
		if sol.Status != Optimal || math.Abs(sol.Obj-best) > 1e-6 || sol.Bound != sol.Obj {
			t.Fatalf("trial %d: search %v obj %g bound %g, enumerated optimum %g",
				trial, sol.Status, sol.Obj, sol.Bound, best)
		}
		if !s.checkFeasible(sol.X) || math.Abs(s.objOf(sol.X)-sol.Obj) > 1e-6 {
			t.Fatalf("trial %d: returned vector %v is infeasible or not worth %g", trial, sol.X, sol.Obj)
		}
	}
	if infeasible == 0 {
		t.Fatal("no trial was infeasible")
	}
	t.Logf("%d of 60 trials infeasible", infeasible)
}

// TestWarmMatchesCold checks warm-started node re-solves change nothing
// about the result: the search, whose node LPs re-solve from the previous
// basis through its lp.Resolver, proves the same optimum (or the same
// infeasibility) as coldBranchAndBound, which solves every node LP from
// scratch. Each trial adds a random ≥ row, so the trees branch.
func TestWarmMatchesCold(t *testing.T) {
	leakcheck.Check(t)
	rng := rand.New(rand.NewSource(23))
	warmSolves := 0
	for trial := 0; trial < 40; trial++ {
		p, cols := buildRandomMIP(rng, 6+rng.Intn(8), 2+rng.Intn(4))
		addRandomGeRow(rng, p, cols, 0.2, 0.5)
		warm, err := New(p, cols).Solve(context.Background(), &Options{})
		if err != nil {
			t.Fatal(err)
		}
		cold := coldBranchAndBound(t, p, cols)
		if math.IsInf(cold, 1) {
			if warm.Status != Infeasible {
				t.Fatalf("trial %d: warm %v obj %g, cold infeasible", trial, warm.Status, warm.Obj)
			}
			continue
		}
		if warm.Status != Optimal || math.Abs(warm.Obj-cold) > 1e-6 {
			t.Fatalf("trial %d: warm %v obj %g vs cold %g", trial, warm.Status, warm.Obj, cold)
		}
		warmSolves += warm.LPStats.Warm
	}
	if warmSolves == 0 {
		t.Fatal("no node LP was warm-started")
	}
}

// coldBranchAndBound returns the optimum of a 0/1 problem by a depth-first
// branch and bound that solves every node LP from scratch with
// lp.Problem.Solve, on a copy of p that carries the node's fixings, or
// +Inf when no 0/1 vector is feasible.
func coldBranchAndBound(t *testing.T, p *lp.Problem, cols []lp.ColID) float64 {
	t.Helper()
	best := math.Inf(1)
	var dive func(fixed map[lp.ColID][2]float64)
	dive = func(fixed map[lp.ColID][2]float64) {
		q := p.Clone()
		for c, b := range fixed {
			q.SetBounds(c, b[0], b[1])
		}
		sol, err := q.Solve(nil)
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case sol.Status == lp.Infeasible:
			return
		case sol.Status != lp.Optimal:
			t.Fatalf("cold node LP: %v", sol.Status)
		case sol.Obj >= best-1e-9:
			return
		}
		for _, c := range cols {
			if v := sol.X[c]; math.Abs(v-math.Round(v)) > intTol {
				for _, b := range [2]float64{0, 1} {
					child := make(map[lp.ColID][2]float64, len(fixed)+1)
					for k, v := range fixed {
						child[k] = v
					}
					child[c] = [2]float64{b, b}
					dive(child)
				}
				return
			}
		}
		best = sol.Obj
	}
	dive(nil)
	return best
}

// TestAllStrategiesAgree runs the search under every combination of the
// settings that change how it reaches its answer (LP kernel, LP presolve,
// root cover cuts) on random MIPs, each with a random ≥ row so the trees
// branch, and checks all prove the same optimum or all prove infeasibility.
func TestAllStrategiesAgree(t *testing.T) {
	leakcheck.Check(t)
	rng := rand.New(rand.NewSource(31))
	kernels := []lp.Kernel{lp.KernelAuto, lp.KernelDense, lp.KernelSparse}
	for trial := 0; trial < 25; trial++ {
		p, cols := buildRandomMIP(rng, 4+rng.Intn(8), 2+rng.Intn(4))
		addRandomGeRow(rng, p, cols, 0.2, 0.5)
		var ref *Solution
		for _, kernel := range kernels {
			for _, presolve := range []bool{false, true} {
				for _, cuts := range []bool{false, true} {
					opts := &Options{LP: &lp.Options{Kernel: kernel, Presolve: presolve}, RootCuts: cuts}
					sol, err := New(p, cols).Solve(context.Background(), opts)
					if err != nil {
						t.Fatal(err)
					}
					if sol.Status != Optimal && sol.Status != Infeasible {
						t.Fatalf("trial %d kernel %d presolve %v cuts %v: status %v",
							trial, kernel, presolve, cuts, sol.Status)
					}
					if ref == nil {
						ref = sol
					} else if sol.Status != ref.Status || (sol.Status == Optimal && math.Abs(sol.Obj-ref.Obj) > 1e-6) {
						t.Fatalf("trial %d: kernel %d presolve %v cuts %v found %v %g, reference %v %g",
							trial, kernel, presolve, cuts, sol.Status, sol.Obj, ref.Status, ref.Obj)
					}
				}
			}
		}
	}
}

// TestBestFirstBoundMonotone checks the bounds the search reports on
// random MIPs: a proven optimum's objective equals its final bound, and as
// the node budget grows a stopped search's incumbent never worsens, never
// passes the optimum, and its best bound never exceeds the optimum.
func TestBestFirstBoundMonotone(t *testing.T) {
	leakcheck.Check(t)
	rng := rand.New(rand.NewSource(5))
	branched := 0
	for trial := 0; trial < 10; trial++ {
		p, cols := buildRandomMIP(rng, 10, 4)
		addRandomGeRow(rng, p, cols, 0.2, 0.3)
		sol, err := New(p, cols).Solve(context.Background(), &Options{})
		if err != nil {
			t.Fatal(err)
		}
		if sol.Status == Infeasible {
			continue
		}
		if sol.Status != Optimal {
			t.Fatalf("trial %d: status %v", trial, sol.Status)
		}
		if math.Abs(sol.Bound-sol.Obj) > 1e-6 {
			t.Errorf("trial %d: optimal solution has bound %g != obj %g", trial, sol.Bound, sol.Obj)
		}
		if sol.Nodes > 1 {
			branched++
		}
		prev := math.Inf(1)
		for limit := 1; limit <= sol.Nodes; limit++ {
			part, err := New(p, cols).Solve(context.Background(), &Options{MaxNodes: limit})
			if err != nil {
				t.Fatal(err)
			}
			if part.Bound > sol.Obj+1e-6 {
				t.Fatalf("trial %d, %d nodes: bound %g passes the optimum %g", trial, limit, part.Bound, sol.Obj)
			}
			switch part.Status {
			case Optimal, Feasible:
				if part.Obj > prev+1e-9 || part.Obj < sol.Obj-1e-6 {
					t.Fatalf("trial %d, %d nodes: incumbent %g after %g, optimum %g",
						trial, limit, part.Obj, prev, sol.Obj)
				}
				prev = part.Obj
			case NoSolution:
				if !math.IsInf(prev, 1) {
					t.Fatalf("trial %d, %d nodes: no incumbent where %d nodes found %g", trial, limit, limit-1, prev)
				}
			default:
				t.Fatalf("trial %d, %d nodes: status %v", trial, limit, part.Status)
			}
		}
		if prev != sol.Obj {
			t.Fatalf("trial %d: full node budget found %g, unlimited search %g", trial, prev, sol.Obj)
		}
	}
	if branched == 0 {
		t.Fatal("every trial was solved at the root; no node budget stopped a search early")
	}
}

// TestCanceledContext checks a pre-canceled context stops the search
// before any node is explored.
func TestCanceledContext(t *testing.T) {
	leakcheck.Check(t)
	rng := rand.New(rand.NewSource(41))
	p, cols := buildRandomMIP(rng, 12, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sol, err := New(p, cols).Solve(ctx, &Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != NoSolution {
		t.Fatalf("canceled solve: %v, want no-solution", sol.Status)
	}
}

// TestSharedIncumbent checks a supplied optimal incumbent seeds the
// search: the solve keeps it.
func TestSharedIncumbent(t *testing.T) {
	leakcheck.Check(t)
	rng := rand.New(rand.NewSource(59))
	for trial := 0; trial < 10; trial++ {
		p, cols := buildRandomMIP(rng, 8, 3)
		ref, err := New(p, cols).Solve(context.Background(), &Options{})
		if err != nil || ref.Status != Optimal {
			t.Fatalf("reference: %v %v", err, ref.Status)
		}
		inc := append([]float64(nil), ref.X...)
		sol, err := New(p, cols).Solve(context.Background(), &Options{Incumbent: inc})
		if err != nil {
			t.Fatal(err)
		}
		if sol.Status != Optimal || sol.Obj != ref.Obj {
			t.Fatalf("trial %d: incumbent-seeded solve %v obj %v, want optimal %v",
				trial, sol.Status, sol.Obj, ref.Obj)
		}
	}
}
