package lp_test

import (
	"math/rand"
	"testing"

	"sos/internal/arch"
	"sos/internal/lp"
	"sos/internal/model"
	"sos/internal/taskgraph"
)

// pricingTol bounds the drift of the sparse kernel's maintained reduced
// costs from a from-scratch pricing, relative to max(1, |d_j|). The
// kernel re-prices from scratch at every refactorization, so drift can
// build up over at most spxRefactorEvery pivots.
const pricingTol = 1e-9

// TestSparsePricingMatchesScratch checks the reduced costs the sparse
// kernel updates from each pivot row against a from-scratch pricing
// after every pivot: along the Example 2 cap-15 cold solve, along that
// model's 40-step resolver walk (dual repairs, primal cleanups and cold
// rebuilds), and along the presolved root LP of a 200-subtask forced
// fork-join model, the size of the benchmark's scale workload.
func TestSparsePricingMatchesScratch(t *testing.T) {
	var pivots int
	var worst float64
	stop := lp.WatchPricing(func(gap float64) {
		pivots++
		worst = max(worst, gap)
	})
	defer stop()
	run := func(name string, solve func(t *testing.T)) {
		t.Run(name, func(t *testing.T) {
			pivots, worst = 0, 0
			solve(t)
			if pivots == 0 {
				t.Fatal("no sparse pivot ran")
			}
			t.Logf("%d pivots, largest relative gap %.3g", pivots, worst)
			if worst > pricingTol {
				t.Errorf("maintained reduced costs drifted %.3g from a from-scratch pricing, want at most %g",
					worst, pricingTol)
			}
		})
	}
	ex2 := pathModel(t, "ex2-cap15")
	sparse := &lp.Options{Kernel: lp.KernelSparse}
	run("ex2-cap15/cold", func(t *testing.T) {
		if sol, err := ex2.Prob.Solve(sparse); err != nil || sol.Status != lp.Optimal {
			t.Fatalf("solve: %v %v", err, sol.Status)
		}
	})
	run("ex2-cap15/walk", func(t *testing.T) {
		if raceEnabled {
			t.Skip("Example 2 resolver walk skipped under the race detector")
		}
		r, err := ex2.Prob.NewResolver(sparse)
		if err != nil {
			t.Fatal(err)
		}
		driveResolverPath(t, r, ex2.BranchCols())
	})
	run("fork-join-200", func(t *testing.T) {
		rng := rand.New(rand.NewSource(200))
		g := taskgraph.ForkJoin(rng, taskgraph.StructuredSpec{Subtasks: 200, MaxFan: 4})
		m, err := model.Build(g, arch.ForcedPool(rng, 200), arch.PointToPoint{}, model.Options{})
		if err != nil {
			t.Fatal(err)
		}
		sol, err := m.Prob.Solve(&lp.Options{Kernel: lp.KernelSparse, Presolve: true})
		if err != nil || sol.Status != lp.Optimal {
			t.Fatalf("solve: %v %v", err, sol.Status)
		}
	})
}
