package exact

import (
	"context"
	"strings"
	"testing"

	"sos/internal/arch"
	"sos/internal/budget"
	"sos/internal/expts"
)

// TestFaultSearchPanic: an injected crash in the mapping DFS must surface
// as an error from Synthesize, not kill the process.
func TestFaultSearchPanic(t *testing.T) {
	g, lib := expts.Example1()
	pool := expts.Example1Pool(lib)
	opts := Options{Objective: MinMakespan, testHook: func(n int) {
		if n == 20 {
			panic("injected crash")
		}
	}}
	_, err := Synthesize(context.Background(), g, pool, arch.PointToPoint{}, opts)
	if err == nil || !strings.Contains(err.Error(), "search panic") {
		t.Fatalf("panic not converted to error: %v", err)
	}
}

// TestAnytimeCertificate pins the exact engine's status taxonomy: an
// exhausted search proves optimality with Bound equal to the objective; a
// node-capped search returns a Feasible incumbent with a nonzero gap or a
// typed no-incumbent status; a pre-canceled search reports Canceled.
func TestAnytimeCertificate(t *testing.T) {
	g, lib := expts.Example1()
	pool := expts.Example1Pool(lib)

	res, err := Synthesize(context.Background(), g, pool, arch.PointToPoint{},
		Options{Objective: MinMakespan, CostCap: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != budget.StatusOptimal || !res.Optimal {
		t.Fatalf("exhausted search: status %v optimal %v", res.Status, res.Optimal)
	}
	if res.Bound != res.Design.Makespan || res.Gap != 0 {
		t.Fatalf("optimal certificate: bound %g gap %g, makespan %g",
			res.Bound, res.Gap, res.Design.Makespan)
	}

	// One mapping node is enough to start but not to finish: budget-limited.
	res, err = Synthesize(context.Background(), g, pool, arch.PointToPoint{},
		Options{Objective: MinMakespan, CostCap: 7, MaxNodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	switch res.Status {
	case budget.StatusFeasible:
		if res.Design == nil || res.Design.Makespan < res.Bound-1e-9 {
			t.Fatalf("feasible certificate broken: %+v", res)
		}
	case budget.StatusBudgetExhausted:
		if res.Design != nil {
			t.Fatalf("budget-exhausted with a design: %+v", res)
		}
	default:
		t.Fatalf("node-capped search: status %v", res.Status)
	}
	if res.Optimal {
		t.Fatal("node-capped search claims optimality")
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err = Synthesize(ctx, g, pool, arch.PointToPoint{},
		Options{Objective: MinMakespan, CostCap: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != budget.StatusCanceled || res.Design != nil {
		t.Fatalf("pre-canceled search: status %v design %v", res.Status, res.Design)
	}
}
