package model

import (
	"context"
	"math"
	"math/rand"
	"runtime/debug"
	"testing"
	"time"

	"sos/internal/arch"
	"sos/internal/expts"
	"sos/internal/lp"
	"sos/internal/milp"
	"sos/internal/taskgraph"
)

// buildForced builds a pipeline-shaped instance where subtask i can run
// ONLY on processor type i (one instance each, arch.ForcedPool). The
// mapping σ is forced by capability, so the MILP's combinatorics collapse:
// the LP root is integral and branch and bound closes at the root node.
// What remains is a large pure-LP scheduling problem — exactly the regime
// that separates the dense tableau (quadratic memory, dense pivots) from
// the sparse revised simplex with presolve (which eliminates the forced
// binaries outright).
func buildForced(t *testing.T, rng *rand.Rand, n int) *Model {
	t.Helper()
	g := taskgraph.SeriesParallel(rng, taskgraph.StructuredSpec{Subtasks: n, MaxFan: 4})
	m, err := Build(g, arch.ForcedPool(rng, n), arch.PointToPoint{}, Options{Objective: MinMakespan})
	if err != nil {
		t.Fatalf("Build(%d subtasks): %v", n, err)
	}
	return m
}

// TestForcedMappingRootIntegral: with every σ forced, the relaxation is
// already integral and the search must close at the root.
func TestForcedMappingRootIntegral(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := buildForced(t, rng, 30)
	design, sol, err := m.Solve(context.Background(), &milp.Options{
		LP: &lp.Options{Kernel: lp.KernelSparse, Presolve: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != milp.Optimal {
		t.Fatalf("status %v", sol.Status)
	}
	if sol.Nodes != 1 {
		t.Fatalf("closed after %d nodes, want 1 (root integral)", sol.Nodes)
	}
	if err := design.Validate(nil); err != nil {
		t.Fatalf("invalid design: %v", err)
	}
}

// TestSparseOutscalesDense is the tentpole acceptance test: a generated
// 100+-subtask instance that the dense kernel cannot close cold within a
// small budget, while the sparse kernel with presolve solves it to proven
// optimality cold within the same budget.
func TestSparseOutscalesDense(t *testing.T) {
	if testing.Short() {
		t.Skip("large MILP in -short mode")
	}
	if raceEnabled {
		t.Skip("wall-clock budget assertion is meaningless under race instrumentation")
	}
	// The dense solve below grows the heap to several GB. Return it before
	// the package's later tests run: their allocations would otherwise
	// grow toward the stale multi-GB heap goal, past the memory of a small
	// host (the cross-engine fuzz seeds, which run last, thrashed for
	// minutes on an 8 GB one).
	defer debug.FreeOSMemory()
	rng := rand.New(rand.NewSource(13))
	m := buildForced(t, rng, 1200)
	budget := 15 * time.Second

	_, dense, err := m.Solve(context.Background(), &milp.Options{
		TimeLimit: budget,
		ColdLP:    true,
		LP:        &lp.Options{Kernel: lp.KernelDense},
	})
	if err != nil {
		t.Fatal(err)
	}
	if dense.Status == milp.Optimal {
		t.Fatalf("dense kernel closed the %d-row instance within %v — grow the instance",
			m.Prob.NumRows(), budget)
	}

	start := time.Now()
	design, sparse, err := m.Solve(context.Background(), &milp.Options{
		TimeLimit: budget,
		ColdLP:    true,
		LP:        &lp.Options{Kernel: lp.KernelSparse, Presolve: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if sparse.Status != milp.Optimal {
		t.Fatalf("sparse+presolve status %v after %v (dense got %v)",
			sparse.Status, time.Since(start), dense.Status)
	}
	if err := design.Validate(nil); err != nil {
		t.Fatalf("invalid design: %v", err)
	}
}

// TestSmoke200Subtasks is the CI smoke: build and root-solve a 200-subtask
// structured instance with the production configuration (sparse kernel,
// presolve, root cuts) and validate the extracted design.
func TestSmoke200Subtasks(t *testing.T) {
	if testing.Short() {
		t.Skip("large MILP in -short mode")
	}
	rng := rand.New(rand.NewSource(200))
	m := buildForced(t, rng, 200)
	if m.Stats.Nonzeros == 0 {
		t.Fatal("Stats.Nonzeros not populated")
	}
	design, sol, err := m.Solve(context.Background(), &milp.Options{
		TimeLimit: 2 * time.Minute,
		RootCuts:  true,
		LP:        &lp.Options{Kernel: lp.KernelSparse, Presolve: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != milp.Optimal {
		t.Fatalf("status %v after %d nodes", sol.Status, sol.Nodes)
	}
	if err := design.Validate(nil); err != nil {
		t.Fatalf("invalid design: %v", err)
	}
}

// paperModels builds the three paper workloads: Example 1 (point-to-point),
// Example 2 point-to-point, and Example 2 on the shared bus.
func paperModels(t *testing.T) map[string]*Model {
	t.Helper()
	out := make(map[string]*Model)
	g1, lib1 := expts.Example1()
	m1, err := Build(g1, expts.Example1Pool(lib1), arch.PointToPoint{}, Options{Objective: MinMakespan})
	if err != nil {
		t.Fatal(err)
	}
	out["example1-p2p"] = m1
	g2, lib2 := expts.Example2()
	m2, err := Build(g2, expts.Example2Pool(lib2), arch.PointToPoint{}, Options{Objective: MinMakespan})
	if err != nil {
		t.Fatal(err)
	}
	out["example2-p2p"] = m2
	m3, err := Build(g2, expts.Example2Pool(lib2), arch.Bus{}, Options{Objective: MinMakespan})
	if err != nil {
		t.Fatal(err)
	}
	out["example2-bus"] = m3
	return out
}

// TestPaperWorkloadsRootLPEquivalence cross-checks the sparse kernel
// against the dense oracle on the root relaxation of all three paper
// workloads: same status, same optimum, with and without presolve.
func TestPaperWorkloadsRootLPEquivalence(t *testing.T) {
	for name, m := range paperModels(t) {
		ref, err := m.Prob.Solve(&lp.Options{Kernel: lp.KernelDense})
		if err != nil {
			t.Fatalf("%s dense: %v", name, err)
		}
		for _, cfg := range []struct {
			label string
			opts  lp.Options
		}{
			{"sparse", lp.Options{Kernel: lp.KernelSparse}},
			{"sparse+presolve", lp.Options{Kernel: lp.KernelSparse, Presolve: true}},
			{"dense+presolve", lp.Options{Kernel: lp.KernelDense, Presolve: true}},
		} {
			got, err := m.Prob.Solve(&cfg.opts)
			if err != nil {
				t.Fatalf("%s %s: %v", name, cfg.label, err)
			}
			if got.Status != ref.Status {
				t.Errorf("%s %s: status %v, dense oracle says %v", name, cfg.label, got.Status, ref.Status)
				continue
			}
			if ref.Status == lp.Optimal && math.Abs(got.Obj-ref.Obj) > 1e-6*(1+math.Abs(ref.Obj)) {
				t.Errorf("%s %s: root obj %g, dense oracle says %g", name, cfg.label, got.Obj, ref.Obj)
			}
		}
	}
}

// TestTable2SweepSparseKernel re-runs the paper's Table II sweep with the
// sparse kernel, presolve, and root cuts forced, checking every published
// (cost, performance) point still reproduces exactly.
func TestTable2SweepSparseKernel(t *testing.T) {
	if testing.Short() {
		t.Skip("MILP sweep in -short mode")
	}
	g, lib := expts.Example1()
	pool := expts.Example1Pool(lib)
	for _, pt := range expts.Table2 {
		m, err := Build(g, pool, arch.PointToPoint{}, Options{Objective: MinMakespan, CostCap: pt.Cost})
		if err != nil {
			t.Fatal(err)
		}
		design, sol, err := m.Solve(context.Background(), &milp.Options{
			TimeLimit: 2 * time.Minute,
			RootCuts:  true,
			LP:        &lp.Options{Kernel: lp.KernelSparse, Presolve: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		if sol.Status != milp.Optimal {
			t.Fatalf("cap %g: status %v", pt.Cost, sol.Status)
		}
		if math.Abs(design.Makespan-pt.Perf) > 1e-6 {
			t.Errorf("cap %g: makespan %g, paper says %g", pt.Cost, design.Makespan, pt.Perf)
		}
	}
}
