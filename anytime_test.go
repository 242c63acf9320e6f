package sos

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"sos/internal/expts"
)

// TestStatusMappingCombinatorial pins the Synthesize status taxonomy for
// the combinatorial engine: a proof maps to StatusOptimal with a tight
// bound, proven infeasibility to StatusInfeasible, and cancellation
// before any incumbent to StatusCanceled.
func TestStatusMappingCombinatorial(t *testing.T) {
	res, err := Synthesize(context.Background(), example1Spec(EngineAuto))
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusOptimal || res.Gap != 0 {
		t.Fatalf("optimal solve: status %v gap %g", res.Status, res.Gap)
	}
	if math.Abs(res.Bound-res.Design.Makespan) > 1e-9 {
		t.Fatalf("optimal bound %g, makespan %g", res.Bound, res.Design.Makespan)
	}

	spec := example1Spec(EngineAuto)
	spec.CostCap = 3
	res, err = Synthesize(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusInfeasible || !res.Infeasible {
		t.Fatalf("cap 3: status %v infeasible %v", res.Status, res.Infeasible)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err = Synthesize(ctx, example1Spec(EngineAuto))
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusCanceled || res.Design != nil || res.Optimal {
		t.Fatalf("pre-canceled: status %v design %v", res.Status, res.Design)
	}
}

// TestStatusMappingHeuristic: heuristic designs are never proofs — they
// carry StatusFeasible with an unbounded gap, and a heuristic miss proves
// nothing: budget-exhausted, no design, no infeasibility claim.
func TestStatusMappingHeuristic(t *testing.T) {
	res, err := Synthesize(context.Background(), example1Spec(EngineHeuristic))
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusFeasible || res.Optimal {
		t.Fatalf("heuristic solve: status %v optimal %v", res.Status, res.Optimal)
	}
	if !math.IsInf(res.Gap, 1) {
		t.Fatalf("heuristic gap %g, want +Inf (no bound known)", res.Gap)
	}

	spec := example1Spec(EngineHeuristic)
	spec.CostCap = 3
	res, err = Synthesize(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusBudgetExhausted || res.Design != nil || res.Infeasible {
		t.Fatalf("heuristic at cap 3: status %v design %v infeasible %v, want budget-exhausted with no design",
			res.Status, res.Design, res.Infeasible)
	}

	// The greedy design is 2.5 fast; a MinCost deadline it cannot meet
	// is a miss, which proves nothing: no design, no infeasibility claim.
	spec = example1Spec(EngineHeuristic)
	spec.Objective = MinCost
	spec.Deadline = 2
	res, err = Synthesize(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusBudgetExhausted || res.Design != nil || res.Infeasible {
		t.Fatalf("heuristic at deadline 2: status %v design %v infeasible %v, want budget-exhausted with no design",
			res.Status, res.Design, res.Infeasible)
	}
	if !math.IsInf(res.Gap, 1) {
		t.Fatalf("heuristic miss gap %g, want +Inf", res.Gap)
	}
}

// TestStatusMappingMILP: the MILP engine's proof maps to StatusOptimal
// with Bound equal to the objective; a vanishing budget degrades to a
// typed non-proof status, never a fabricated certificate.
func TestStatusMappingMILP(t *testing.T) {
	if testing.Short() {
		t.Skip("MILP in -short mode")
	}
	res, err := Synthesize(context.Background(), example1Spec(EngineMILP))
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusOptimal || !res.Optimal {
		t.Fatalf("MILP solve: status %v optimal %v", res.Status, res.Optimal)
	}
	if math.Abs(res.Bound-res.Design.Makespan) > 1e-6 {
		t.Fatalf("MILP bound %g, makespan %g", res.Bound, res.Design.Makespan)
	}

	spec := example1Spec(EngineMILP)
	spec.Budget = time.Microsecond
	res, err = Synthesize(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Optimal {
		t.Fatal("microsecond MILP budget claims optimality")
	}
	switch res.Status {
	case StatusFeasible:
		if res.Design == nil {
			t.Fatal("StatusFeasible without a design")
		}
	case StatusBudgetExhausted:
		if res.Design != nil {
			t.Fatalf("StatusBudgetExhausted with a design: %+v", res.Design)
		}
	default:
		t.Fatalf("microsecond MILP budget: status %v", res.Status)
	}
}

// TestFrontierAnytimeDegrades is the headline acceptance check: a sweep
// whose MILP rung is starved (microsecond per-solve budget) degrades down
// the ladder instead of erroring, and the combinatorial rung still
// certifies the paper's full Table II frontier. Every returned design
// must be Validate-clean.
func TestFrontierAnytimeDegrades(t *testing.T) {
	spec := example1Spec(EngineMILP)
	spec.Budget = time.Microsecond
	spec.Anytime = true
	pts, err := Frontier(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) == 0 {
		t.Fatal("anytime sweep returned an empty frontier")
	}
	for i, p := range pts {
		if p.Design == nil {
			t.Fatalf("point %d has no design", i)
		}
		if err := Validate(p.Design); err != nil {
			t.Fatalf("point %d fails validation: %v", i, err)
		}
		if p.Status != StatusOptimal && p.Status != StatusFeasible {
			t.Fatalf("point %d carries non-design status %v", i, p.Status)
		}
		if p.Status == StatusFeasible && p.Gap < 0 {
			t.Fatalf("point %d has negative gap %g", i, p.Gap)
		}
	}
	// The combinatorial rung is unstarved here, so degradation must not
	// cost any frontier quality: the sweep still matches Table II exactly.
	if len(pts) != len(expts.Table2Full) {
		t.Fatalf("degraded frontier has %d points, want %d", len(pts), len(expts.Table2Full))
	}
	for i, want := range expts.Table2Full {
		if math.Abs(pts[i].Cost-want.Cost) > 1e-9 || math.Abs(pts[i].Perf-want.Perf) > 1e-9 {
			t.Errorf("point %d: (%g,%g), want (%g,%g)", i, pts[i].Cost, pts[i].Perf, want.Cost, want.Perf)
		}
	}
}

// TestFrontierHooksReachSweepSolves: Spec.Hooks reach every MILP solve
// of a sweep, not just single solves. A node hook that crashes every MILP
// solve must fire, and the anytime sweep must degrade around the crashed
// rung to the exact Table II frontier.
func TestFrontierHooksReachSweepSolves(t *testing.T) {
	spec := example1Spec(EngineMILP)
	spec.Anytime = true
	var fired atomic.Int64
	spec.Hooks = &SolverHooks{OnNode: func(int) {
		fired.Add(1)
		panic("injected MILP node crash")
	}}
	pts, err := Frontier(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if fired.Load() == 0 {
		t.Fatal("Spec.Hooks never reached a sweep solve")
	}
	if len(pts) != len(expts.Table2Full) {
		t.Fatalf("frontier has %d points, want %d", len(pts), len(expts.Table2Full))
	}
	for i, want := range expts.Table2Full {
		if math.Abs(pts[i].Cost-want.Cost) > 1e-9 || math.Abs(pts[i].Perf-want.Perf) > 1e-9 || pts[i].Status != StatusOptimal {
			t.Errorf("point %d: (%g,%g) %v, want (%g,%g) optimal", i, pts[i].Cost, pts[i].Perf, pts[i].Status, want.Cost, want.Perf)
		}
	}
}

// TestFrontierStrictTinyBudget: without Anytime, a starved sweep must
// stop with the typed sentinel, returning only annotated points whose
// designs validate.
func TestFrontierStrictTinyBudget(t *testing.T) {
	spec := example1Spec(EngineMILP)
	spec.Budget = time.Microsecond
	pts, err := Frontier(context.Background(), spec)
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("strict starved sweep: err %v, want ErrBudgetExhausted", err)
	}
	for i, p := range pts {
		if p.Design == nil {
			t.Fatalf("partial point %d has no design", i)
		}
		if err := Validate(p.Design); err != nil {
			t.Fatalf("partial point %d fails validation: %v", i, err)
		}
	}
}

// TestFrontierSweepBudgetGovernor: a pre-exhausted sweep budget yields
// the typed sentinel and an empty frontier in strict mode, while a
// generous one changes nothing — the frontier is bitwise Table II.
func TestFrontierSweepBudgetGovernor(t *testing.T) {
	spec := example1Spec(EngineAuto)
	spec.SweepBudget = time.Nanosecond
	pts, err := Frontier(context.Background(), spec)
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("nanosecond sweep budget: err %v, want ErrBudgetExhausted", err)
	}
	if len(pts) != 0 {
		t.Fatalf("nanosecond sweep budget returned %d points", len(pts))
	}

	spec = example1Spec(EngineAuto)
	spec.SweepBudget = time.Minute
	spec.Anytime = true
	pts, err = Frontier(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != len(expts.Table2Full) {
		t.Fatalf("governed frontier has %d points, want %d", len(pts), len(expts.Table2Full))
	}
	for i, want := range expts.Table2Full {
		if math.Abs(pts[i].Cost-want.Cost) > 1e-9 || math.Abs(pts[i].Perf-want.Perf) > 1e-9 {
			t.Errorf("point %d: (%g,%g), want (%g,%g)", i, pts[i].Cost, pts[i].Perf, want.Cost, want.Perf)
		}
		if pts[i].Status != StatusOptimal {
			t.Errorf("point %d not certified under a generous budget: %v", i, pts[i].Status)
		}
	}
}

// TestFrontierCanceledTyped: cancellation surfaces through the sweep as
// the budget sentinel AND context.Canceled, so callers can distinguish
// "user hit ctrl-C" from "budget ran dry" with errors.Is alone.
func TestFrontierCanceledTyped(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pts, err := Frontier(ctx, example1Spec(EngineAuto))
	if !errors.Is(err, ErrBudgetExhausted) || !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled sweep: err %v, want both sentinels", err)
	}
	if len(pts) != 0 {
		t.Fatalf("canceled sweep returned %d points", len(pts))
	}
}

// TestFrontierMidSweepCancellation cancels a running MILP sweep from a
// timer: the call must return promptly with a typed cancellation error, a
// (possibly empty) prefix of valid points, and no leaked goroutines.
func TestFrontierMidSweepCancellation(t *testing.T) {
	if testing.Short() {
		t.Skip("MILP in -short mode")
	}
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	pts, err := Frontier(ctx, example1Spec(EngineMILP))
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("cancellation ignored for %v", elapsed)
	}
	if err == nil {
		t.Fatal("mid-sweep cancellation produced no error")
	}
	if !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("mid-sweep cancellation: untyped error %v", err)
	}
	for i, p := range pts {
		if p.Design == nil {
			t.Fatalf("partial point %d has no design", i)
		}
		if err := Validate(p.Design); err != nil {
			t.Fatalf("partial point %d fails validation: %v", i, err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("goroutines leaked: %d before, %d after", before, n)
	}
}
