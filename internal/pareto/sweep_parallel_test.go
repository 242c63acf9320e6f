package pareto

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"sos/internal/arch"
	"sos/internal/budget"
	"sos/internal/expts"
	"sos/internal/leakcheck"
	"sos/internal/milp"
	"sos/internal/model"
	"sos/internal/race"
	"sos/internal/taskgraph"
	"sos/internal/telemetry"
)

// forceParallel raises GOMAXPROCS for the test's duration so the worker
// clamp (which falls a 1-effective-worker sweep back to the sequential
// path on single-CPU hosts) keeps the parallel machinery under test
// regardless of the machine running the suite.
func forceParallel(t *testing.T, workers int) {
	t.Helper()
	if old := runtime.GOMAXPROCS(0); old < workers {
		runtime.GOMAXPROCS(workers)
		t.Cleanup(func() { runtime.GOMAXPROCS(old) })
	}
}

// frontiersIdentical asserts the two sweeps produced the same frontier:
// same length, and the same (cost, perf, status) at every index.
func frontiersIdentical(t *testing.T, seq, par []Point) {
	t.Helper()
	if len(seq) != len(par) {
		t.Fatalf("sequential frontier has %d points, parallel %d", len(seq), len(par))
	}
	for i := range seq {
		if math.Abs(seq[i].Cost()-par[i].Cost()) > 1e-6 ||
			math.Abs(seq[i].Perf()-par[i].Perf()) > 1e-6 {
			t.Errorf("point %d: sequential (%g,%g) vs parallel (%g,%g)", i,
				seq[i].Cost(), seq[i].Perf(), par[i].Cost(), par[i].Perf())
		}
		if seq[i].Status != par[i].Status {
			t.Errorf("point %d: sequential status %v vs parallel %v", i, seq[i].Status, par[i].Status)
		}
	}
}

// TestParallelSweepMatchesSequentialMILP is the tentpole's correctness
// anchor: the speculative-parallel Table II sweep must return the exact
// frontier of the sequential sweep — same points, same order, same
// statuses — with the race detector watching the shared templates,
// incumbent pool, and job queue.
func TestParallelSweepMatchesSequentialMILP(t *testing.T) {
	forceParallel(t, 4)
	leakcheck.Check(t)
	if testing.Short() {
		t.Skip("MILP sweep in -short mode")
	}
	g, lib := expts.Example1()
	pool := expts.Example1Pool(lib)
	seq, err := Sweep(context.Background(), family(g, pool, arch.PointToPoint{}, budget.RungMILP, 2*time.Minute), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4} {
		par, err := Sweep(context.Background(), family(g, pool, arch.PointToPoint{}, budget.RungMILP, 2*time.Minute),
			Options{SweepWorkers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		frontiersIdentical(t, seq, par)
	}
	want := make([][2]float64, len(expts.Table2Full))
	for i, pt := range expts.Table2Full {
		want[i] = [2]float64{pt.Cost, pt.Perf}
	}
	if err := FrontierEquals(seq, want, 1e-6); err != nil {
		t.Fatal(err)
	}
}

// TestParallelSweepMatchesSequentialCombinatorial runs the cheaper
// combinatorial engine over all three table workloads, so every topology's
// parallel path gets -race coverage in every test run (including -short).
func TestParallelSweepMatchesSequentialCombinatorial(t *testing.T) {
	forceParallel(t, 4)
	leakcheck.Check(t)
	g1, lib1 := expts.Example1()
	g2, lib2 := expts.Example2()
	workloads := []struct {
		name string
		g    *taskgraph.Graph
		pool *arch.Instances
		topo arch.Topology
	}{
		{"example1-p2p", g1, expts.Example1Pool(lib1), arch.PointToPoint{}},
		{"example2-p2p", g2, expts.Example2Pool(lib2), arch.PointToPoint{}},
		{"example2-bus", g2, expts.Example2Pool(lib2), arch.Bus{}},
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			seq, err := Sweep(context.Background(), family(w.g, w.pool, w.topo, budget.RungCombinatorial, 2*time.Minute), Options{})
			if err != nil {
				t.Fatal(err)
			}
			par, err := Sweep(context.Background(), family(w.g, w.pool, w.topo, budget.RungCombinatorial, 2*time.Minute),
				Options{SweepWorkers: 4})
			if err != nil {
				t.Fatal(err)
			}
			frontiersIdentical(t, seq, par)
		})
	}
}

// TestParallelSweepBuildAmortization verifies the model-reuse claim with
// the package counters: a whole MILP sweep — by cost or by deadline, at
// any worker count — performs exactly two full Builds (one MinMakespan
// template, one MinCost template) however many points and speculative
// jobs it solves, and at least one clone per lexicographic solve. A sweep
// whose rungs never reach the MILP builds nothing. A raced sweep builds
// at most the same two templates: its MILP rung may lose every point
// before it reaches the tightening template.
func TestParallelSweepBuildAmortization(t *testing.T) {
	forceParallel(t, 4)
	if testing.Short() {
		t.Skip("MILP sweep in -short mode")
	}
	g, lib := expts.Example1()
	pool := expts.Example1Pool(lib)
	want := make([][2]float64, len(expts.Table2Full))
	for i, pt := range expts.Table2Full {
		want[i] = [2]float64{pt.Cost, pt.Perf}
	}
	sweeps := []struct {
		name    string
		minCost bool
		run     func(*race.Family, Options) ([]Point, error)
	}{
		{"Sweep", false, func(fam *race.Family, o Options) ([]Point, error) {
			return Sweep(context.Background(), fam, o)
		}},
		{"SweepByDeadline", true, func(fam *race.Family, o Options) ([]Point, error) {
			return SweepByDeadline(context.Background(), fam, o, 1e-3)
		}},
	}
	engines := []struct {
		name   string
		first  budget.Rung
		race   bool
		builds int64 // exact; an upper bound when race is set
	}{
		{"milp", budget.RungMILP, false, 2},
		{"combinatorial", budget.RungCombinatorial, false, 0},
		{"milp-raced", budget.RungMILP, true, 2},
		{"combinatorial-raced", budget.RungCombinatorial, true, 2},
	}
	for _, sweep := range sweeps {
		for _, workers := range []int{0, 1, 4} {
			for _, e := range engines {
				builds := e.builds
				t.Run(fmt.Sprintf("%s/workers=%d/%s", sweep.name, workers, e.name), func(t *testing.T) {
					leakcheck.Check(t)
					fam := family(g, pool, arch.PointToPoint{}, e.first, 2*time.Minute)
					fam.MinCost, fam.Race = sweep.minCost, e.race
					if e.race {
						fam.Rungs = race.Resolve(budget.DefaultLadder(e.first), sweep.minCost, true)
					}
					b0, c0 := model.BuildCount(), model.CloneCount()
					points, err := sweep.run(fam, Options{SweepWorkers: workers})
					if err != nil {
						t.Fatal(err)
					}
					if err := FrontierEquals(points, want, 1e-6); err != nil {
						t.Fatal(err)
					}
					got := model.BuildCount() - b0
					if e.race {
						if got > builds {
							t.Errorf("raced sweep performed %d full Builds, want at most %d", got, builds)
						}
						return
					}
					if got != builds {
						t.Errorf("sweep performed %d full Builds, want exactly %d", got, builds)
					}
					// Each MILP frontier point needs a clone per solve of its
					// lexicographic pair at minimum.
					if clones := model.CloneCount() - c0; builds > 0 && clones < int64(2*len(points)) {
						t.Errorf("sweep performed %d clones, want >= %d", clones, 2*len(points))
					}
				})
			}
		}
	}
}

// TestWalkDegradesAroundFailingRung: a MILP rung that crashes on its
// first node at every point fails with an error, and the ladder walk
// degrades around it instead of aborting the sweep — the combinatorial
// rung certifies every Table II point.
func TestWalkDegradesAroundFailingRung(t *testing.T) {
	leakcheck.Check(t)
	g, lib := expts.Example1()
	pool := expts.Example1Pool(lib)
	var fired atomic.Int64
	fam := family(g, pool, arch.PointToPoint{}, budget.RungMILP, 0)
	fam.Rungs = budget.DefaultLadder(budget.RungMILP)
	fam.MILP.Hooks = &milp.Hooks{OnNode: func(int) {
		fired.Add(1)
		panic("injected solver crash")
	}}
	points, err := Sweep(context.Background(), fam, Options{Anytime: true})
	if err != nil {
		t.Fatal(err)
	}
	if fired.Load() == 0 {
		t.Fatal("fault never injected")
	}
	want := make([][2]float64, len(expts.Table2Full))
	for i, pt := range expts.Table2Full {
		want[i] = [2]float64{pt.Cost, pt.Perf}
	}
	if err := FrontierEquals(points, want, 1e-6); err != nil {
		t.Fatal(err)
	}
	for i, p := range points {
		if p.Rung != budget.RungCombinatorial || p.Status != budget.StatusOptimal {
			t.Errorf("point %d: rung %v status %v, want an optimal combinatorial point", i, p.Rung, p.Status)
		}
	}
}

// TestParallelSweepFaultInjection crashes exactly one MILP solve (a panic
// on its first branch-and-bound node) and checks the sweep degrades
// gracefully: the failed job is retried inline by the reconciler and the
// frontier comes back complete and correct.
func TestParallelSweepFaultInjection(t *testing.T) {
	forceParallel(t, 4)
	leakcheck.Check(t)
	if testing.Short() {
		t.Skip("MILP sweep in -short mode")
	}
	g, lib := expts.Example1()
	pool := expts.Example1Pool(lib)
	var fired atomic.Bool
	fam := family(g, pool, arch.PointToPoint{}, budget.RungMILP, 2*time.Minute)
	fam.MILP.Hooks = &milp.Hooks{OnNode: func(int) {
		if fired.CompareAndSwap(false, true) {
			panic("injected solver crash")
		}
	}}
	points, err := Sweep(context.Background(), fam, Options{SweepWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !fired.Load() {
		t.Fatal("fault never injected")
	}
	want := make([][2]float64, len(expts.Table2Full))
	for i, pt := range expts.Table2Full {
		want[i] = [2]float64{pt.Cost, pt.Perf}
	}
	if err := FrontierEquals(points, want, 1e-6); err != nil {
		for _, p := range points {
			t.Logf("  point: cost=%g perf=%g status=%v", p.Cost(), p.Perf(), p.Status)
		}
		t.Fatal(err)
	}
}

// TestParallelSweepSpeculationTelemetry checks the speculation events are
// accounted: with a StartCap the grid is non-empty, and every speculative
// job ends classified as exactly one of hit, wasted, or retargeted.
func TestParallelSweepSpeculationTelemetry(t *testing.T) {
	forceParallel(t, 4)
	leakcheck.Check(t)
	g, lib := expts.Example1()
	pool := expts.Example1Pool(lib)
	tel := telemetry.New(nil)
	fam := family(g, pool, arch.PointToPoint{}, budget.RungCombinatorial, 2*time.Minute)
	fam.Telemetry = tel
	_, err := Sweep(context.Background(), fam, Options{StartCap: 14, SweepWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	snap := tel.Counters()
	total := snap["speculative_hits"] + snap["speculative_wasted"] + snap["speculative_retargeted"]
	if total == 0 {
		t.Error("no speculation events recorded (grid unexpectedly empty)")
	}
	if snap["points"] != int64(len(expts.Table2Full)) {
		t.Errorf("points counter = %d, want %d", snap["points"], len(expts.Table2Full))
	}
}

// TestParallelSweepGovernedLadder runs the parallel sweep under a tight
// governor with the full degradation ladder: it must not error, and every
// returned point must respect the frontier invariant (decreasing cost,
// strictly increasing makespan).
func TestParallelSweepGovernedLadder(t *testing.T) {
	forceParallel(t, 4)
	leakcheck.Check(t)
	g, lib := expts.Example1()
	pool := expts.Example1Pool(lib)
	fam := family(g, pool, arch.PointToPoint{}, budget.RungMILP, 2*time.Minute)
	fam.Rungs = budget.DefaultLadder(budget.RungMILP)
	fam.Governor = budget.New(50 * time.Millisecond)
	points, err := Sweep(context.Background(), fam, Options{SweepWorkers: 4, Anytime: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(points); i++ {
		if points[i].Cost() >= points[i-1].Cost() || points[i].Perf() <= points[i-1].Perf() {
			t.Errorf("invariant violated between points %d and %d: (%g,%g) then (%g,%g)",
				i-1, i, points[i-1].Cost(), points[i-1].Perf(), points[i].Cost(), points[i].Perf())
		}
	}
}
