package pareto

import (
	"context"
	"testing"

	"sos/internal/arch"
	"sos/internal/budget"
	"sos/internal/expts"
	"sos/internal/telemetry"
)

// checkFrontierInvariant asserts the ordering Sweep documents: decreasing
// cost and strictly increasing makespan.
func checkFrontierInvariant(t *testing.T, pts []Point) {
	t.Helper()
	for i := 1; i < len(pts); i++ {
		if pts[i].Cost() >= pts[i-1].Cost() {
			t.Errorf("point %d: cost %g not below previous %g", i, pts[i].Cost(), pts[i-1].Cost())
		}
		if pts[i].Perf() <= pts[i-1].Perf() {
			t.Errorf("point %d: makespan %g not above previous %g (dominated point leaked)",
				i, pts[i].Perf(), pts[i-1].Perf())
		}
	}
}

// TestDegradedSweepFrontierInvariant is the regression for dominated points
// leaking out of a degraded sweep: with the combinatorial rung capped at 32
// mapping nodes, some caps exhaust their budget and fall back to uncertified
// incumbents whose makespan is worse than what a later, cheaper cap achieves.
// Before the invariant enforcement, those earlier points survived in the
// returned frontier even though the later point dominated them. The node cap
// makes the degradation deterministic (no wall clock involved).
func TestDegradedSweepFrontierInvariant(t *testing.T) {
	g, lib := expts.Example1()
	pool := expts.Example1Pool(lib)
	sink := &telemetry.CountingSink{}
	tel := telemetry.New(sink)
	fam := family(g, pool, arch.PointToPoint{}, budget.EngineCombinatorial, 0)
	fam.Rungs = budget.Ladder{budget.EngineCombinatorial, budget.EngineHeuristic}
	fam.Exact.MaxNodes = 32
	fam.Telemetry = tel
	pts, err := Sweep(context.Background(), fam, Options{Anytime: true})
	if err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	if len(pts) < 3 {
		t.Fatalf("only %d frontier points; fixture no longer exercises the sweep", len(pts))
	}
	checkFrontierInvariant(t, pts)
	drops := tel.Get(telemetry.CtrDominatedDropped)
	if drops == 0 {
		t.Fatal("no dominated points were dropped: the fixture no longer produces the " +
			"degraded-incumbent scenario this regression test exists to pin")
	}
	if got := sink.Count(telemetry.EvDominated); got != drops {
		t.Errorf("dominated events = %d, counter = %d", got, drops)
	}
	// Degradations must have been recorded for the rungs that exhausted.
	if tel.Get(telemetry.CtrDegrades) == 0 {
		t.Error("degraded sweep recorded no ladder degradations")
	}
	for i, p := range pts {
		if p.Design == nil {
			t.Fatalf("point %d has no design", i)
		}
		if err := p.Design.Validate(nil); err != nil {
			t.Errorf("point %d invalid: %v", i, err)
		}
	}
}

// TestUndegradedSweepDropsNothing: a fully certified sweep can never emit a
// dominated point, so the enforcement must be a no-op there.
func TestUndegradedSweepDropsNothing(t *testing.T) {
	g, lib := expts.Example1()
	pool := expts.Example1Pool(lib)
	tel := telemetry.New(nil)
	fam := family(g, pool, arch.PointToPoint{}, budget.EngineCombinatorial, 0)
	fam.Telemetry = tel
	pts, err := Sweep(context.Background(), fam, Options{})
	if err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	checkFrontierInvariant(t, pts)
	if got := tel.Get(telemetry.CtrDominatedDropped); got != 0 {
		t.Errorf("certified sweep dropped %d points", got)
	}
	if got := tel.Get(telemetry.CtrPoints); got != int64(len(pts)) {
		t.Errorf("points counter = %d, frontier has %d", got, len(pts))
	}
}
