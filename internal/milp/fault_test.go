package milp

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"testing"

	"sos/internal/lp"
)

// refSolve returns the known-good sequential optimum of a random MIP.
func refSolve(t *testing.T, p *lp.Problem, cols []lp.ColID) *Solution {
	t.Helper()
	ref, err := New(p, cols).Solve(context.Background(), &Options{})
	if err != nil || ref.Status != Optimal {
		t.Fatalf("reference solve: %v %v", err, ref.Status)
	}
	return ref
}

// TestFaultWarmRejection: with every warm start vetoed, branch and bound
// must still prove the same optimum it proves with warm re-solves.
func TestFaultWarmRejection(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 5; trial++ {
		p, cols := buildRandomMIP(rng, 10, 4)
		ref := refSolve(t, p, cols)
		sol, err := New(p, cols).Solve(context.Background(), &Options{
			Hooks: &Hooks{LP: &lp.Hooks{RejectWarm: func() bool { return true }}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if sol.Status != Optimal || math.Abs(sol.Obj-ref.Obj) > 1e-7 {
			t.Fatalf("trial %d: %v obj %g, want optimal %g", trial, sol.Status, sol.Obj, ref.Obj)
		}
		if sol.LPStats.Warm != 0 {
			t.Fatalf("trial %d: warm solves served despite rejection: %+v", trial, sol.LPStats)
		}
	}
}

// TestFaultIterationCap: a one-iteration LP budget means no node relaxation
// can be trusted; the solve must degrade to a typed status (NoSolution, or
// Feasible when an incumbent was supplied) instead of claiming a proof.
func TestFaultIterationCap(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	p, cols := buildRandomMIP(rng, 10, 4)
	ref := refSolve(t, p, cols)
	hooks := &Hooks{LP: &lp.Hooks{ForceIterLimit: 1}}

	sol, err := New(p, cols).Solve(context.Background(), &Options{Hooks: hooks})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != NoSolution {
		t.Fatalf("capped solve: %v, want no-solution", sol.Status)
	}

	// With a known-feasible incumbent the degraded solve must keep it and
	// report Feasible — the incumbent survives the dead LP layer.
	sol, err = New(p, cols).Solve(context.Background(), &Options{Hooks: hooks, Incumbent: ref.X})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Feasible || math.Abs(sol.Obj-ref.Obj) > 1e-7 {
		t.Fatalf("capped solve with incumbent: %v obj %g, want feasible %g", sol.Status, sol.Obj, ref.Obj)
	}
}

// TestFaultWorkerPanic: a panic thrown mid-search — at the root or deeper
// in the tree — must come back as an error mentioning the panic, never
// kill the process.
func TestFaultWorkerPanic(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	p, cols := buildRandomMIP(rng, 12, 4)
	for _, panicAt := range []int{1, 5} {
		sol, err := New(p, cols).Solve(context.Background(), &Options{
			Hooks: &Hooks{OnNode: func(n int) {
				if n >= panicAt {
					panic("injected crash")
				}
			}},
		})
		if err == nil {
			t.Fatalf("panicAt=%d: no error (sol %+v)", panicAt, sol)
		}
		if !strings.Contains(err.Error(), "worker panic") || !strings.Contains(err.Error(), "injected crash") {
			t.Fatalf("panicAt=%d: error %q does not surface the panic", panicAt, err)
		}
	}
}

// TestFaultMidPivotCancellation: cancel the context from inside a simplex
// pivot; the solve must stop at the next budget check with a typed
// degraded status and no error.
func TestFaultMidPivotCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(113))
	p, cols := buildRandomMIP(rng, 14, 5)
	ctx, cancel := context.WithCancel(context.Background())
	pivots := 0
	sol, err := New(p, cols).Solve(ctx, &Options{
		Hooks: &Hooks{LP: &lp.Hooks{OnPivot: func(int) {
			if pivots++; pivots == 10 {
				cancel()
			}
		}}},
	})
	cancel()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != NoSolution && sol.Status != Feasible && sol.Status != Optimal {
		t.Fatalf("status %v after mid-pivot cancel", sol.Status)
	}
	// Whatever survived must be self-consistent: a reported objective
	// only with a solution vector attached.
	if (sol.Status == Feasible || sol.Status == Optimal) && sol.X == nil {
		t.Fatalf("status %v with no solution vector", sol.Status)
	}
}
