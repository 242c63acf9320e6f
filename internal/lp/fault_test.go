package lp

import (
	"math/rand"
	"testing"
)

// TestHooksRejectWarmForcesCold: with the warm path vetoed on every call,
// the resolver must serve each solve from a cold rebuild and still return
// results identical to a from-scratch solve under the same bounds.
func TestHooksRejectWarmForcesCold(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p, bins := randomProblem(rng)
	r, err := p.NewResolver(&Options{Hooks: &Hooks{RejectWarm: func() bool { return true }}})
	if err != nil {
		t.Fatal(err)
	}
	bounds := map[ColID][2]float64{}
	const steps = 40
	for i := 0; i < steps; i++ {
		bounds = mutateBounds(rng, bins, bounds)
		got := r.Solve(bounds)
		want, err := solveBounded(p, nil, bounds)
		if err != nil {
			t.Fatal(err)
		}
		if got.Status != want.Status {
			t.Fatalf("step %d: status %v, cold says %v", i, got.Status, want.Status)
		}
		if got.Status == Optimal && mathAbs(got.Obj-want.Obj) > 1e-7 {
			t.Fatalf("step %d: obj %g, cold says %g", i, got.Obj, want.Obj)
		}
	}
	st := r.Stats()
	if st.Warm != 0 {
		t.Fatalf("warm solves served despite rejection: %+v", st)
	}
	if st.Cold != steps {
		t.Fatalf("cold solves %d, want %d: %+v", st.Cold, steps, st)
	}
}

// TestHooksForceIterLimit: an injected one-iteration budget must surface
// as a clean IterLimit status — or, when the solve genuinely converges
// within its single allowed pivot, the same certificate an uncapped solve
// proves. It must never fabricate a certificate the uncapped solve would
// not issue.
func TestHooksForceIterLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	p, bins := randomProblem(rng)
	opts := &Options{Hooks: &Hooks{ForceIterLimit: 1}}
	sol, err := p.Solve(opts)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != IterLimit {
		t.Fatalf("capped solve: %v, want iteration-limit", sol.Status)
	}
	r, err := p.NewResolver(opts)
	if err != nil {
		t.Fatal(err)
	}
	sawLimit := false
	bounds := map[ColID][2]float64{}
	for i := 0; i < 10; i++ {
		bounds = mutateBounds(rng, bins, bounds)
		got := r.Solve(bounds)
		if got.Status == IterLimit {
			sawLimit = true
			continue
		}
		want, err := solveBounded(p, nil, bounds)
		if err != nil {
			t.Fatal(err)
		}
		if got.Status != want.Status {
			t.Fatalf("capped re-solve %d fabricated %v, uncapped proves %v", i, got.Status, want.Status)
		}
	}
	if !sawLimit {
		t.Fatal("iteration cap never fired across the re-solve sequence")
	}
}

// TestHooksOnPivotObserves: the pivot hook must see every iteration of a
// normal solve, in order, so cancellation/crash injection points exist at
// pivot granularity.
func TestHooksOnPivotObserves(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	p, _ := randomProblem(rng)
	var seen []int
	sol, err := p.Solve(&Options{Hooks: &Hooks{OnPivot: func(it int) { seen = append(seen, it) }}})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) == 0 {
		t.Fatal("pivot hook never fired")
	}
	if sol.Iters == 0 || len(seen) < sol.Iters {
		t.Fatalf("hook fired %d times for %d iterations", len(seen), sol.Iters)
	}
	for i := 1; i < len(seen); i++ {
		if seen[i] < seen[i-1] {
			t.Fatalf("iteration counts not monotone: %d after %d", seen[i], seen[i-1])
		}
	}
}

func mathAbs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
