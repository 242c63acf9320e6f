package lp

import (
	"math"
	"math/rand"
	"testing"
)

// driveResolver pushes a resolver through a random branching sequence and
// cross-checks every solve against a dense cold solve of the original
// problem. Returns the resolver's stats so callers can assert warm
// coverage.
func driveResolver(t *testing.T, rng *rand.Rand, p *Problem, bins []ColID, opts *Options, trial int) ResolveStats {
	t.Helper()
	r, err := p.NewResolver(opts)
	if err != nil {
		t.Fatal(err)
	}
	bounds := map[ColID][2]float64{}
	for step := 0; step < 25; step++ {
		bounds = mutateBounds(rng, bins, bounds)
		warm := r.Solve(bounds)
		cold, err := solveBounded(p, &Options{Kernel: KernelDense}, bounds)
		if err != nil {
			t.Fatal(err)
		}
		if warm.Status != cold.Status {
			t.Fatalf("trial %d step %d: resolver %v vs dense cold %v (bounds %v)",
				trial, step, warm.Status, cold.Status, bounds)
		}
		if warm.Status == Optimal {
			if math.Abs(warm.Obj-cold.Obj) > 1e-6*(1+math.Abs(cold.Obj)) {
				t.Fatalf("trial %d step %d: resolver obj %g vs dense cold %g (bounds %v)",
					trial, step, warm.Obj, cold.Obj, bounds)
			}
			checkFeasible(t, p, bounds, warm.X)
		}
	}
	return r.Stats()
}

// TestResolverSparseMatchesCold is TestResolverMatchesCold with the
// sparse kernel forced: the revised-simplex warm path (FTRAN-backed bound
// updates, BTRAN-priced dual repair) must agree with dense cold solves on
// every step of long random branching sequences.
func TestResolverSparseMatchesCold(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	sawWarm := false
	for trial := 0; trial < 40; trial++ {
		p, bins := randomProblem(rng)
		if len(bins) == 0 {
			continue
		}
		st := driveResolver(t, rng, p, bins, &Options{Kernel: KernelSparse}, trial)
		if st.Warm > 0 {
			sawWarm = true
		}
	}
	if !sawWarm {
		t.Error("sparse resolver never took the warm path across all trials")
	}
}

// TestResolverPresolveMatchesCold runs the presolve-once composition
// (reduce at NewResolver, translate per-call bounds) across both kernels
// against dense cold ground truth.
func TestResolverPresolveMatchesCold(t *testing.T) {
	for _, kern := range []Kernel{KernelDense, KernelSparse} {
		rng := rand.New(rand.NewSource(23))
		for trial := 0; trial < 30; trial++ {
			p, bins := randomProblem(rng)
			if len(bins) == 0 {
				continue
			}
			driveResolver(t, rng, p, bins, &Options{Kernel: kern, Presolve: true}, trial)
		}
	}
}

// TestResolverPresolveConflictShortCircuit: an override contradicting a
// presolve-fixed column must be answered Infeasible by the presolve layer
// without running a kernel.
func TestResolverPresolveConflictShortCircuit(t *testing.T) {
	p := NewProblem("conflict")
	fixed := p.AddCol("fixed", 1, 1, 1)
	free := p.AddCol("free", 0, 4, -1)
	p.AddRow("r", Le, 5, Term{fixed, 1}, Term{free, 1})
	r, err := p.NewResolver(&Options{Presolve: true})
	if err != nil {
		t.Fatal(err)
	}
	sol := r.Solve(map[ColID][2]float64{fixed: {0, 0}})
	if sol.Status != Infeasible {
		t.Fatalf("status %v, want infeasible", sol.Status)
	}
	if st := r.Stats(); st.PresolveCut != 1 || st.Cold != 0 || st.Warm != 0 {
		t.Fatalf("stats %+v, want the conflict served by presolve alone", st)
	}
	// A compatible solve afterwards still works and expands correctly.
	sol = r.Solve(map[ColID][2]float64{free: {2, 2}})
	if sol.Status != Optimal || !approx(sol.Obj, -1) || !approx(sol.X[fixed], 1) || !approx(sol.X[free], 2) {
		t.Fatalf("got %v obj=%g x=%v", sol.Status, sol.Obj, sol.X)
	}
}

// TestResolverSparseRefactorDrift forces many warm steps on one sparse
// resolver so the intra-solve eta file and the inter-solve warmRuns
// refresh both cycle, checking objectives stay pinned to ground truth.
func TestResolverSparseRefactorDrift(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	p, bins := randomProblem(rng)
	for len(bins) < 4 {
		p, bins = randomProblem(rng)
	}
	r, err := p.NewResolver(&Options{Kernel: KernelSparse})
	if err != nil {
		t.Fatal(err)
	}
	bounds := map[ColID][2]float64{}
	for step := 0; step < 400; step++ {
		bounds = mutateBounds(rng, bins, bounds)
		warm := r.Solve(bounds)
		cold, err := solveBounded(p, nil, bounds)
		if err != nil {
			t.Fatal(err)
		}
		if warm.Status != cold.Status {
			t.Fatalf("step %d: %v vs %v", step, warm.Status, cold.Status)
		}
		if warm.Status == Optimal && math.Abs(warm.Obj-cold.Obj) > 1e-6 {
			t.Fatalf("step %d: drifted obj %g vs %g", step, warm.Obj, cold.Obj)
		}
	}
}
