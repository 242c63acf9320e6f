package milp

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"sos/internal/lp"
)

// knapsackMIP builds max Σp_j·x_j s.t. Σw_j·x_j ≤ cap over binaries —
// the shape the SOS cost-cap row takes, and the canonical cover-cut
// target.
func knapsackMIP(weights, profits []float64, cap float64) (*lp.Problem, []lp.ColID) {
	p := lp.NewProblem("knap")
	var cols []lp.ColID
	terms := make([]lp.Term, 0, len(weights))
	for j := range weights {
		c := p.AddCol("", 0, 1, -profits[j]) // maximize => minimize negation
		cols = append(cols, c)
		terms = append(terms, lp.Term{Col: c, Coef: weights[j]})
	}
	p.AddRow("cap", lp.Le, cap, terms...)
	return p, cols
}

// TestCoverCutSeparation checks the separator on a point it must cut: four
// equal items of weight 3 under capacity 10 relax to x_j = 5/6 each, and
// the cover {all four} gives Σx ≤ 3 violated by 1/3.
func TestCoverCutSeparation(t *testing.T) {
	p, cols := knapsackMIP([]float64{3, 3, 3, 3}, []float64{1, 1, 1, 1}, 10)
	s := New(p, cols)
	rows := s.knapsackRows(p)
	if len(rows) != 1 {
		t.Fatalf("found %d knapsack rows, want 1", len(rows))
	}
	x := []float64{5.0 / 6, 5.0 / 6, 5.0 / 6, 5.0 / 6}
	cut := separateCover(&rows[0], x)
	if cut == nil {
		t.Fatal("no cover cut separated at a fractional knapsack point")
	}
	if cut.rhs != 3 || len(cut.terms) != 4 {
		t.Fatalf("cut has rhs %g with %d terms, want Σx ≤ 3 over 4 columns", cut.rhs, len(cut.terms))
	}
	lhs := 0.0
	for _, tm := range cut.terms {
		lhs += tm.Coef * x[tm.Col]
	}
	if lhs <= cut.rhs {
		t.Fatalf("separated cut not violated: %g ≤ %g", lhs, cut.rhs)
	}
}

// TestCoverCutNegativeCoefficients exercises the complementation path:
// a row with a negative term is still a knapsack after x → 1−x̄.
func TestCoverCutNegativeCoefficients(t *testing.T) {
	p := lp.NewProblem("neg")
	a := p.AddCol("a", 0, 1, -1)
	b := p.AddCol("b", 0, 1, -1)
	c := p.AddCol("c", 0, 1, 1)
	// 3a + 3b − 2c ≤ 2  ⇔  3a + 3b + 2c̄ ≤ 4.
	p.AddRow("r", lp.Le, 2, lp.Term{Col: a, Coef: 3}, lp.Term{Col: b, Coef: 3}, lp.Term{Col: c, Coef: -2})
	s := New(p, []lp.ColID{a, b, c})
	rows := s.knapsackRows(p)
	if len(rows) != 1 {
		t.Fatalf("found %d knapsack rows, want 1", len(rows))
	}
	if rows[0].cap != 4 {
		t.Fatalf("complemented capacity %g, want 4", rows[0].cap)
	}
	// a = b = 2/3, c = 0: cover {a, b, c̄} weighs 3+3+2 = 8 > 4 and is
	// violated: (1−2/3)+(1−2/3)+(1−1) = 2/3 < 1.
	cut := separateCover(&rows[0], []float64{2.0 / 3, 2.0 / 3, 0})
	if cut == nil {
		t.Fatal("no cut through the complemented row")
	}
	lhs := 0.0
	x := []float64{2.0 / 3, 2.0 / 3, 0}
	for _, tm := range cut.terms {
		lhs += tm.Coef * x[tm.Col]
	}
	if lhs <= cut.rhs+cutViolTol {
		t.Fatalf("cut not violated at the fractional point: %g ≤ %g", lhs, cut.rhs)
	}
	// Every integer-feasible point must satisfy the cut.
	for mask := 0; mask < 8; mask++ {
		xi := []float64{float64(mask & 1), float64(mask >> 1 & 1), float64(mask >> 2 & 1)}
		if 3*xi[0]+3*xi[1]-2*xi[2] > 2 {
			continue // infeasible for the row itself
		}
		lhs := 0.0
		for _, tm := range cut.terms {
			lhs += tm.Coef * xi[tm.Col]
		}
		if lhs > cut.rhs+1e-9 {
			t.Fatalf("cut rejects feasible integer point %v: %g > %g", xi, lhs, cut.rhs)
		}
	}
}

// TestRootCutsPreserveOptimum: RootCuts must never change the optimum,
// only the search. Randomized across knapsacks and general MIPs.
func TestRootCutsPreserveOptimum(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 30; trial++ {
		var p *lp.Problem
		var cols []lp.ColID
		if trial%2 == 0 {
			n := 5 + rng.Intn(8)
			weights := make([]float64, n)
			profits := make([]float64, n)
			total := 0.0
			for j := range weights {
				weights[j] = 1 + float64(rng.Intn(9))
				profits[j] = 1 + float64(rng.Intn(9))
				total += weights[j]
			}
			p, cols = knapsackMIP(weights, profits, total*(0.3+0.4*rng.Float64()))
		} else {
			p, cols = buildRandomMIP(rng, 4+rng.Intn(8), 2+rng.Intn(4))
		}
		plain, err := New(p, cols).Solve(context.Background(), nil)
		if err != nil {
			t.Fatal(err)
		}
		cut, err := New(p, cols).Solve(context.Background(), &Options{RootCuts: true})
		if err != nil {
			t.Fatal(err)
		}
		if plain.Status != cut.Status {
			t.Fatalf("trial %d: status %v with cuts vs %v without", trial, cut.Status, plain.Status)
		}
		if plain.Status == Optimal && math.Abs(plain.Obj-cut.Obj) > 1e-6 {
			t.Fatalf("trial %d: obj %g with cuts vs %g without", trial, cut.Obj, plain.Obj)
		}
		rowsBefore := p.NumRows()
		if rowsBefore != p.NumRows() {
			t.Fatalf("trial %d: caller problem mutated", trial)
		}
	}
}

// TestRootCutsFireOnFractionalKnapsack pins an instance whose root is
// fractional and checks cuts actually land and are counted.
func TestRootCutsFireOnFractionalKnapsack(t *testing.T) {
	p, cols := knapsackMIP([]float64{3, 3, 3, 3}, []float64{5, 5, 5, 5}, 10)
	before := p.NumRows()
	sol, err := New(p, cols).Solve(context.Background(), &Options{RootCuts: true})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status %v", sol.Status)
	}
	if sol.Cuts != 1 {
		t.Fatalf("%d root cuts on a fractional knapsack root, want 1", sol.Cuts)
	}
	if !approxEq(sol.Obj, -15) { // three items fit
		t.Fatalf("obj %g, want -15", sol.Obj)
	}
	if p.NumRows() != before {
		t.Fatal("RootCuts mutated the caller's problem")
	}
}

// TestRootCutsWithSparseKernelAndPresolve: the cut loop and tree search
// must compose with the kernel/presolve pass-through.
func TestRootCutsWithSparseKernelAndPresolve(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < 10; trial++ {
		p, cols := buildRandomMIP(rng, 6+rng.Intn(6), 3+rng.Intn(3))
		plain, err := New(p, cols).Solve(context.Background(), nil)
		if err != nil {
			t.Fatal(err)
		}
		tuned, err := New(p, cols).Solve(context.Background(), &Options{
			RootCuts: true,
			LP:       &lp.Options{Kernel: lp.KernelSparse, Presolve: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		if plain.Status != tuned.Status {
			t.Fatalf("trial %d: status %v vs %v", trial, tuned.Status, plain.Status)
		}
		if plain.Status == Optimal && math.Abs(plain.Obj-tuned.Obj) > 1e-6 {
			t.Fatalf("trial %d: obj %g vs %g", trial, tuned.Obj, plain.Obj)
		}
	}
}

func approxEq(a, b float64) bool { return math.Abs(a-b) < 1e-6 }

// assignmentMIP builds an n×n assignment problem with random integer
// costs. Its constraint matrix is totally unimodular, so the root LP
// optimum is integral and the search closes at the root.
func assignmentMIP(rng *rand.Rand, n int) (*lp.Problem, []lp.ColID) {
	p := lp.NewProblem("assign")
	x := make([][]lp.ColID, n)
	var cols []lp.ColID
	for i := range x {
		x[i] = make([]lp.ColID, n)
		for j := range x[i] {
			x[i][j] = p.AddCol("", 0, 1, float64(1+rng.Intn(20)))
			cols = append(cols, x[i][j])
		}
	}
	for i := 0; i < n; i++ {
		row := make([]lp.Term, n)
		col := make([]lp.Term, n)
		for j := 0; j < n; j++ {
			row[j] = lp.Term{Col: x[i][j], Coef: 1}
			col[j] = lp.Term{Col: x[j][i], Coef: 1}
		}
		p.AddRow("row", lp.Eq, 1, row...)
		p.AddRow("col", lp.Eq, 1, col...)
	}
	return p, cols
}

// TestRootCutsSolveRootLPOnce: when the cut loop finds the root integral,
// the root node re-solves the loop's LP warm at unchanged bounds instead
// of solving it cold a second time. The warm re-solve finds no violated
// row and prices once, so it adds at most two pivot-hook calls.
func TestRootCutsSolveRootLPOnce(t *testing.T) {
	p, cols := assignmentMIP(rand.New(rand.NewSource(5)), 6)
	for _, c := range []struct {
		name string
		lp   *lp.Options
	}{
		{"dense", nil},
		{"sparse+presolve", &lp.Options{Kernel: lp.KernelSparse, Presolve: true}},
	} {
		solve := func(rootCuts bool) (int, *Solution) {
			pivots := 0
			sol := solveOK(t, New(p, cols), &Options{
				RootCuts: rootCuts,
				LP:       c.lp,
				Hooks:    &Hooks{LP: &lp.Hooks{OnPivot: func(int) { pivots++ }}},
			})
			return pivots, sol
		}
		plain, ps := solve(false)
		cut, cs := solve(true)
		if ps.Nodes != 1 || cs.Nodes != 1 || cs.Cuts != 0 {
			t.Fatalf("%s: %d and %d nodes, %d cuts; want an integral root", c.name, ps.Nodes, cs.Nodes, cs.Cuts)
		}
		if !approxEq(ps.Obj, cs.Obj) {
			t.Fatalf("%s: obj %g with root cuts, %g without", c.name, cs.Obj, ps.Obj)
		}
		if cut < plain || cut > plain+2 {
			t.Errorf("%s: %d pivot-hook calls with root cuts, want %d (+2 for the warm re-solve)", c.name, cut, plain)
		}
		if st := cs.LPStats; st.Cold != 1 || st.Warm != 1 {
			t.Errorf("%s: LPStats %+v with root cuts, want 1 cold and 1 warm solve", c.name, st)
		}
	}
}
