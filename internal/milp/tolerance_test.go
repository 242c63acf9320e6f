package milp

import (
	"math"
	"testing"

	"sos/internal/lp"
	"sos/internal/telemetry"
)

func TestRelCut(t *testing.T) {
	cases := []struct {
		best, tol, want float64
	}{
		{10, 1e-6, 10 - 1e-6*10},
		{0.5, 1e-6, 0.5 - 1e-6}, // |best| < 1: floor at absolute tol
		{-2, 1e-6, -2 - 2e-6},
		{1e9, 1e-6, 1e9 - 1e3}, // scales with magnitude
	}
	for _, c := range cases {
		if got := relCut(c.best, c.tol); math.Abs(got-c.want) > 1e-12*math.Max(1, math.Abs(c.want)) {
			t.Errorf("relCut(%g, %g) = %g, want %g", c.best, c.tol, got, c.want)
		}
	}
	// Infinite incumbents must pass through unchanged: Inf - tol*Inf is NaN,
	// and a NaN cutoff would disable pruning comparisons entirely.
	if got := relCut(math.Inf(1), 1e-6); !math.IsInf(got, 1) {
		t.Errorf("relCut(+Inf) = %g, want +Inf", got)
	}
	if got := relCut(math.Inf(-1), 1e-6); !math.IsInf(got, -1) {
		t.Errorf("relCut(-Inf) = %g, want -Inf", got)
	}
	if got := cutoff(math.Inf(1)); !math.IsInf(got, 1) || math.IsNaN(got) {
		t.Errorf("cutoff(+Inf) = %g, want +Inf", got)
	}
}

// largeOffsetKnapsack is the TestKnapsack instance shifted by a huge constant:
// a fixed column adds `offset` to every objective value, so absolute epsilons
// (1e-9, below float64 ULP at 1e9) degenerate while relative tolerances keep
// their meaning.
func largeOffsetKnapsack(offset float64) (*lp.Problem, []lp.ColID) {
	p := lp.NewProblem("knap-offset")
	a := binCol(p, "a", -10)
	b := binCol(p, "b", -13)
	c := binCol(p, "c", -7)
	p.AddCol("base", 1, 1, offset) // fixed: pure objective shift
	p.AddRow("cap", lp.Le, 6, lp.Term{Col: a, Coef: 3}, lp.Term{Col: b, Coef: 4}, lp.Term{Col: c, Coef: 2})
	return p, []lp.ColID{a, b, c}
}

func TestLargeOffsetObjective(t *testing.T) {
	// Regression for the absolute-epsilon incumbent prune: at |obj| ~ 1e9 an
	// absolute 1e-9 slack is smaller than one ULP, so tie-bound nodes were
	// compared exactly and the search lost its optimality slack. The relative
	// cut must terminate with an incumbent within pruneTol*|obj| of the true
	// optimum (offset - 20) and without node-count blowup.
	const offset = 1e9
	p, ints := largeOffsetKnapsack(offset)
	sol := solveOK(t, New(p, ints), nil)
	if sol.Status != Optimal {
		t.Fatalf("status = %v, want optimal", sol.Status)
	}
	trueOpt := offset - 20
	slack := pruneTol * math.Max(1, math.Abs(trueOpt))
	if sol.Obj > trueOpt+slack {
		t.Errorf("obj = %.9g, want <= %.9g (true optimum %.9g + relative slack %g)",
			sol.Obj, trueOpt+slack, trueOpt, slack)
	}
	if sol.Obj < trueOpt-slack {
		t.Errorf("obj = %.9g below provable optimum %.9g: bound logic broken", sol.Obj, trueOpt)
	}
	// The unshifted instance needs only a handful of nodes; the shifted one
	// must not degenerate into exhaustive enumeration.
	if sol.Nodes > 64 {
		t.Errorf("explored %d nodes on a 3-item knapsack: prune degenerated", sol.Nodes)
	}
}

// telemetryProblem is a knapsack big enough to force real branching so node
// and LP counters are nontrivial.
func telemetryProblem() (*lp.Problem, []lp.ColID) {
	p := lp.NewProblem("tel")
	var cols []lp.ColID
	terms := make([]lp.Term, 0, 10)
	for i := 0; i < 10; i++ {
		c := binCol(p, "", -float64(3+i%5))
		cols = append(cols, c)
		terms = append(terms, lp.Term{Col: c, Coef: float64(2 + (i*3)%7)})
	}
	p.AddRow("cap", lp.Le, 11, terms...)
	return p, cols
}

func checkTelemetryConsistency(t *testing.T, sol *Solution, tel *telemetry.Collector, sink *telemetry.CountingSink) {
	t.Helper()
	if got := tel.Get(telemetry.CtrNodesExpanded); got != int64(sol.Nodes) {
		t.Errorf("nodes_expanded counter = %d, Solution.Nodes = %d", got, sol.Nodes)
	}
	if got := sink.Count(telemetry.EvNodeExpand); got != int64(sol.Nodes) {
		t.Errorf("node_expand events = %d, Solution.Nodes = %d", got, sol.Nodes)
	}
	if tel.Get(telemetry.CtrIncumbents) != sink.Count(telemetry.EvIncumbent) {
		t.Errorf("incumbent counter %d != incumbent events %d",
			tel.Get(telemetry.CtrIncumbents), sink.Count(telemetry.EvIncumbent))
	}
	if sol.Status == Optimal && tel.Get(telemetry.CtrIncumbents) < 1 {
		t.Error("optimal solve recorded no incumbents")
	}
	if got, want := tel.Get(telemetry.CtrLPWarm), int64(sol.LPStats.Warm); got != want {
		t.Errorf("lp_warm counter = %d, LPStats.Warm = %d", got, want)
	}
	if got, want := tel.Get(telemetry.CtrLPCold), int64(sol.LPStats.Cold); got != want {
		t.Errorf("lp_cold counter = %d, LPStats.Cold = %d", got, want)
	}
	if got, want := tel.Get(telemetry.CtrLPFallbacks), int64(sol.LPStats.Fallbacks); got != want {
		t.Errorf("lp_fallbacks counter = %d, LPStats.Fallbacks = %d", got, want)
	}
	if got, want := tel.Get(telemetry.CtrLPDualIters), int64(sol.LPStats.DualIters); got != want {
		t.Errorf("lp_dual_iters counter = %d, LPStats.DualIters = %d", got, want)
	}
}

func TestTelemetryConsistencySequential(t *testing.T) {
	p, cols := telemetryProblem()
	sink := &telemetry.CountingSink{}
	tel := telemetry.New(sink)
	sol := solveOK(t, New(p, cols), &Options{Telemetry: tel})
	if sol.Status != Optimal {
		t.Fatalf("status = %v, want optimal", sol.Status)
	}
	if sol.Nodes < 2 {
		t.Fatalf("instance too easy (%d nodes): counters untested", sol.Nodes)
	}
	checkTelemetryConsistency(t, sol, tel, sink)
}

func TestTelemetryDisabledIsNil(t *testing.T) {
	// A solve with no collector must behave identically (smoke: same optimum
	// as TestKnapsack) — guards accidental hard dependencies on telemetry.
	p := lp.NewProblem("knap")
	a := binCol(p, "a", -10)
	b := binCol(p, "b", -13)
	c := binCol(p, "c", -7)
	p.AddRow("cap", lp.Le, 6, lp.Term{Col: a, Coef: 3}, lp.Term{Col: b, Coef: 4}, lp.Term{Col: c, Coef: 2})
	sol := solveOK(t, New(p, []lp.ColID{a, b, c}), &Options{Telemetry: nil})
	if sol.Status != Optimal || math.Abs(sol.Obj-(-20)) > 1e-6 {
		t.Errorf("status=%v obj=%g, want optimal -20", sol.Status, sol.Obj)
	}
}
