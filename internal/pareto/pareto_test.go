package pareto

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sos/internal/arch"
	"sos/internal/budget"
	"sos/internal/exact"
	"sos/internal/expts"
	"sos/internal/leakcheck"
	"sos/internal/milp"
	"sos/internal/model"
	"sos/internal/race"
	"sos/internal/schedule"
	"sos/internal/taskgraph"
)

// family returns a frontier family on the makespan axis that runs one
// rung with both engines' per-solve time limit set to limit; tests adjust
// the rest before the sweep.
func family(g *taskgraph.Graph, pool *arch.Instances, topo arch.Topology, rung budget.Engine, limit time.Duration) *race.Family {
	return &race.Family{G: g, Pool: pool, Topo: topo, Rungs: budget.Ladder{rung}, Frontier: true,
		MILP: milp.Options{TimeLimit: limit}, Exact: exact.Options{TimeLimit: limit}}
}

// deadlineFamily is family on the cost axis, for SweepByDeadline.
func deadlineFamily(g *taskgraph.Graph, pool *arch.Instances, topo arch.Topology, rung budget.Engine, limit time.Duration) *race.Family {
	fam := family(g, pool, topo, rung, limit)
	fam.MinCost = true
	return fam
}

// TestExample1SweepMILP traces Table II with the paper's own method: MILP
// solves at decreasing cost caps.
func TestExample1SweepMILP(t *testing.T) {
	if testing.Short() {
		t.Skip("MILP sweep in -short mode")
	}
	g, lib := expts.Example1()
	pool := expts.Example1Pool(lib)
	points, err := Sweep(context.Background(), family(g, pool, arch.PointToPoint{}, budget.EngineMILP, 2*time.Minute), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The complete frontier is Table II plus the (4,17) single-p1 point
	// the paper's sweep stopped short of (see expts.Table2Full).
	want := make([][2]float64, len(expts.Table2Full))
	for i, pt := range expts.Table2Full {
		want[i] = [2]float64{pt.Cost, pt.Perf}
	}
	if err := FrontierEquals(points, want, 1e-6); err != nil {
		for _, p := range points {
			t.Logf("  point: cost=%g perf=%g", p.Cost(), p.Perf())
		}
		t.Fatal(err)
	}
}

// TestExample1SweepBothEnginesAgree cross-checks the two exact engines
// point by point.
func TestExample1SweepBothEnginesAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("MILP sweep in -short mode")
	}
	g, lib := expts.Example1()
	pool := expts.Example1Pool(lib)
	milpPts, err := Sweep(context.Background(), family(g, pool, arch.PointToPoint{}, budget.EngineMILP, 2*time.Minute), Options{})
	if err != nil {
		t.Fatal(err)
	}
	exactPts, err := Sweep(context.Background(), family(g, pool, arch.PointToPoint{}, budget.EngineCombinatorial, 2*time.Minute), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(milpPts) != len(exactPts) {
		t.Fatalf("MILP frontier has %d points, combinatorial %d", len(milpPts), len(exactPts))
	}
	for i := range milpPts {
		if math.Abs(milpPts[i].Cost()-exactPts[i].Cost()) > 1e-6 ||
			math.Abs(milpPts[i].Perf()-exactPts[i].Perf()) > 1e-6 {
			t.Errorf("point %d: MILP (%g,%g) vs combinatorial (%g,%g)", i,
				milpPts[i].Cost(), milpPts[i].Perf(), exactPts[i].Cost(), exactPts[i].Perf())
		}
	}
}

// TestExample2SweepExact traces Tables IV and V with the combinatorial
// engine.
func TestExample2SweepExact(t *testing.T) {
	g, lib := expts.Example2()
	pool := expts.Example2Pool(lib)
	cases := []struct {
		topo arch.Topology
		want []expts.ParetoPoint
	}{
		{arch.PointToPoint{}, expts.Table4},
		{arch.Bus{}, expts.Table5},
	}
	for _, c := range cases {
		points, err := Sweep(context.Background(), family(g, pool, c.topo, budget.EngineCombinatorial, 3*time.Minute), Options{})
		if err != nil {
			t.Fatalf("%s: %v", c.topo.Name(), err)
		}
		want := make([][2]float64, len(c.want))
		for i, pt := range c.want {
			want[i] = [2]float64{pt.Cost, pt.Perf}
		}
		if err := FrontierEquals(points, want, 1e-6); err != nil {
			for _, p := range points {
				t.Logf("  %s point: cost=%g perf=%g", c.topo.Name(), p.Cost(), p.Perf())
			}
			t.Fatalf("%s: %v", c.topo.Name(), err)
		}
	}
}

// TestFrontierInvariantsOnRandomInstances checks structural properties of
// swept frontiers on random instances: strictly decreasing cost with
// strictly increasing makespan, so that no point dominates another, and
// every point validating.
func TestFrontierInvariantsOnRandomInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(314))
	for trial := 0; trial < 15; trial++ {
		g := taskgraph.Random(rng, taskgraph.RandomSpec{
			Subtasks:  3 + rng.Intn(5),
			ArcProb:   0.4,
			Fractions: trial%2 == 0,
		})
		g.MustFreeze()
		lib := arch.RandomLibrary(rng, g, 2+rng.Intn(2))
		pool := arch.AutoPool(lib, g, 2)
		pts, err := Sweep(context.Background(), family(g, pool, arch.PointToPoint{}, budget.EngineCombinatorial, time.Minute), Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if len(pts) == 0 {
			t.Fatalf("trial %d: empty frontier", trial)
		}
		for i := range pts {
			if err := pts[i].Design.Validate(nil); err != nil {
				t.Fatalf("trial %d point %d: %v", trial, i, err)
			}
			if i == 0 {
				continue
			}
			if pts[i].Cost() >= pts[i-1].Cost() {
				t.Fatalf("trial %d: cost not strictly decreasing: %g then %g",
					trial, pts[i-1].Cost(), pts[i].Cost())
			}
			if pts[i].Perf() <= pts[i-1].Perf()+1e-12 {
				t.Fatalf("trial %d: makespan not strictly increasing: %g then %g",
					trial, pts[i-1].Perf(), pts[i].Perf())
			}
		}
	}
}

// TestDeadlineSweepMatchesCostSweep: sweeping by deadline must trace the
// same frontier as sweeping by cost cap.
func TestDeadlineSweepMatchesCostSweep(t *testing.T) {
	g, lib := expts.Example1()
	pool := expts.Example1Pool(lib)
	byCost, err := Sweep(context.Background(), family(g, pool, arch.PointToPoint{}, budget.EngineCombinatorial, time.Minute), Options{})
	if err != nil {
		t.Fatal(err)
	}
	byDeadline, err := SweepByDeadline(context.Background(),
		deadlineFamily(g, pool, arch.PointToPoint{}, budget.EngineCombinatorial, time.Minute), Options{}, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if len(byCost) != len(byDeadline) {
		t.Fatalf("cost sweep found %d points, deadline sweep %d", len(byCost), len(byDeadline))
	}
	// Deadline sweep runs slow→fast; cost sweep fast→slow.
	for i := range byCost {
		j := len(byDeadline) - 1 - i
		if math.Abs(byCost[i].Cost()-byDeadline[j].Cost()) > 1e-6 ||
			math.Abs(byCost[i].Perf()-byDeadline[j].Perf()) > 1e-6 {
			t.Errorf("point %d: cost-sweep (%g,%g) vs deadline-sweep (%g,%g)",
				i, byCost[i].Cost(), byCost[i].Perf(), byDeadline[j].Cost(), byDeadline[j].Perf())
		}
	}
}

// TestDeadlineSweepMILP exercises the MILP path of the deadline sweep.
func TestDeadlineSweepMILP(t *testing.T) {
	if testing.Short() {
		t.Skip("MILP sweep in -short mode")
	}
	g, lib := expts.Example1()
	pool := expts.Example1Pool(lib)
	pts, err := SweepByDeadline(context.Background(),
		deadlineFamily(g, pool, arch.PointToPoint{}, budget.EngineMILP, 2*time.Minute), Options{}, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != len(expts.Table2Full) {
		t.Fatalf("deadline sweep found %d points, want %d", len(pts), len(expts.Table2Full))
	}
}

// TestParallelSweepBuildAmortization verifies the model-reuse claim with
// the package counters: a whole MILP sweep — by cost or by deadline —
// performs exactly two full Builds (one MinMakespan template, one MinCost
// template) however many points it solves, and at least one clone per
// lexicographic solve. workers is the number of further sweeps that run
// on the same family at the same time (Family.Point is safe for
// concurrent use): they share its two templates, so the count stays two
// however many sweeps run, and every sweep returns the same frontier. A
// sweep whose rungs never reach the MILP builds nothing. A raced sweep
// builds at most the same two templates: its MILP rung may lose every
// point before it reaches the tightening template.
func TestParallelSweepBuildAmortization(t *testing.T) {
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
		run     func(*race.Family) ([]Point, error)
	}{
		{"Sweep", false, func(fam *race.Family) ([]Point, error) {
			return Sweep(context.Background(), fam, Options{})
		}},
		{"SweepByDeadline", true, func(fam *race.Family) ([]Point, error) {
			return SweepByDeadline(context.Background(), fam, Options{}, 1e-3)
		}},
	}
	engines := []struct {
		name   string
		first  budget.Engine
		race   bool
		builds int64 // exact; an upper bound when race is set
	}{
		{"milp", budget.EngineMILP, false, 2},
		{"combinatorial", budget.EngineCombinatorial, false, 0},
		{"milp-raced", budget.EngineMILP, true, 2},
		{"combinatorial-raced", budget.EngineCombinatorial, true, 2},
	}
	for _, sweep := range sweeps {
		for _, workers := range []int{0, 1, 4} {
			for _, e := range engines {
				t.Run(fmt.Sprintf("%s/workers=%d/%s", sweep.name, workers, e.name), func(t *testing.T) {
					leakcheck.Check(t)
					fam := family(g, pool, arch.PointToPoint{}, e.first, 2*time.Minute)
					fam.MinCost, fam.Race = sweep.minCost, e.race
					if e.race {
						fam.Rungs = race.Resolve(budget.DefaultLadder(e.first), sweep.minCost, true)
					}
					b0, c0 := model.BuildCount(), model.CloneCount()
					points := make([][]Point, workers+1)
					errs := make([]error, workers+1)
					var wg sync.WaitGroup
					for i := 1; i <= workers; i++ {
						wg.Add(1)
						go func() {
							defer wg.Done()
							points[i], errs[i] = sweep.run(fam)
						}()
					}
					points[0], errs[0] = sweep.run(fam)
					wg.Wait()
					solved := 0
					for i := range points {
						if errs[i] != nil {
							t.Fatalf("sweep %d: %v", i, errs[i])
						}
						if err := FrontierEquals(points[i], want, 1e-6); err != nil {
							t.Fatalf("sweep %d: %v", i, err)
						}
						solved += len(points[i])
					}
					got := model.BuildCount() - b0
					if e.race {
						if got > e.builds {
							t.Errorf("raced sweeps performed %d full Builds, want at most %d", got, e.builds)
						}
						return
					}
					if got != e.builds {
						t.Errorf("sweeps performed %d full Builds, want exactly %d", got, e.builds)
					}
					// Each MILP frontier point needs a clone per solve of its
					// lexicographic pair at minimum.
					if clones := model.CloneCount() - c0; e.builds > 0 && clones < int64(2*solved) {
						t.Errorf("sweeps performed %d clones, want >= %d", clones, 2*solved)
					}
				})
			}
		}
	}
}

// TestWalkDegradesAroundFailingRung: a MILP rung that crashes on its
// first node at every point fails with an error, and the ladder walk
// degrades around it instead of aborting the sweep — the combinatorial
// rung certifies every Table II point (the heuristic proves nothing, so
// an optimal point can come from no other rung).
func TestWalkDegradesAroundFailingRung(t *testing.T) {
	leakcheck.Check(t)
	g, lib := expts.Example1()
	pool := expts.Example1Pool(lib)
	var fired atomic.Int64
	fam := family(g, pool, arch.PointToPoint{}, budget.EngineMILP, 0)
	fam.Rungs = budget.DefaultLadder(budget.EngineMILP)
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
		if p.Status != budget.StatusOptimal {
			t.Errorf("point %d: status %v, want an optimal point", i, p.Status)
		}
	}
}

// TestSweepGovernedLadder runs an anytime sweep under a tight governor
// with the full degradation ladder: it must not error, and every returned
// point must respect the frontier invariant (decreasing cost, strictly
// increasing makespan).
func TestSweepGovernedLadder(t *testing.T) {
	leakcheck.Check(t)
	g, lib := expts.Example1()
	pool := expts.Example1Pool(lib)
	fam := family(g, pool, arch.PointToPoint{}, budget.EngineMILP, 2*time.Minute)
	fam.Rungs = budget.DefaultLadder(budget.EngineMILP)
	fam.Governor = budget.New(50 * time.Millisecond)
	points, err := Sweep(context.Background(), fam, Options{Anytime: true})
	if err != nil {
		t.Fatal(err)
	}
	checkFrontierInvariant(t, points)
}

// FrontierEquals compares a computed frontier against expected
// (cost, perf) pairs within tol, ignoring order.
func FrontierEquals(points []Point, want [][2]float64, tol float64) error {
	if len(points) != len(want) {
		return fmt.Errorf("pareto: %d frontier points, want %d", len(points), len(want))
	}
	used := make([]bool, len(want))
	for _, p := range points {
		found := false
		for i, w := range want {
			if used[i] {
				continue
			}
			if math.Abs(p.Cost()-w[0]) <= tol && math.Abs(p.Perf()-w[1]) <= tol {
				used[i] = true
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("pareto: unexpected frontier point (cost=%g, perf=%g)", p.Cost(), p.Perf())
		}
	}
	return nil
}

// TestFrontierEqualsMismatch exercises the comparison helper's failure
// modes.
func TestFrontierEqualsMismatch(t *testing.T) {
	pts := []Point{{Design: &schedule.Design{Cost: 5, Makespan: 7}}}
	if err := FrontierEquals(pts, [][2]float64{{5, 7}}, 1e-9); err != nil {
		t.Errorf("exact match rejected: %v", err)
	}
	if err := FrontierEquals(pts, [][2]float64{{5, 8}}, 1e-9); err == nil {
		t.Error("mismatched performance accepted")
	}
	if err := FrontierEquals(pts, [][2]float64{{5, 7}, {6, 6}}, 1e-9); err == nil {
		t.Error("length mismatch accepted")
	}
}

// TestSweepRejectsOffAxisFamily: a sweep solves its chain bounds on its
// own axis, as frontier points; any other family is a caller bug.
func TestSweepRejectsOffAxisFamily(t *testing.T) {
	g, lib := expts.Example1()
	pool := expts.Example1Pool(lib)
	notFrontier := family(g, pool, arch.PointToPoint{}, budget.EngineCombinatorial, 0)
	notFrontier.Frontier = false
	if _, err := Sweep(context.Background(), notFrontier, Options{}); err == nil {
		t.Error("Sweep accepted a family without frontier points")
	}
	if _, err := Sweep(context.Background(), deadlineFamily(g, pool, arch.PointToPoint{}, budget.EngineCombinatorial, 0), Options{}); err == nil {
		t.Error("Sweep accepted a cost-axis family")
	}
	if _, err := SweepByDeadline(context.Background(), family(g, pool, arch.PointToPoint{}, budget.EngineCombinatorial, 0), Options{}, 0); err == nil {
		t.Error("SweepByDeadline accepted a makespan-axis family")
	}
}
