package pareto

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"sos/internal/arch"
	"sos/internal/budget"
	"sos/internal/exact"
	"sos/internal/expts"
	"sos/internal/milp"
	"sos/internal/race"
	"sos/internal/schedule"
	"sos/internal/taskgraph"
)

// family returns a frontier family on the makespan axis that runs one
// rung with both engines' per-solve time limit set to limit; tests adjust
// the rest before the sweep.
func family(g *taskgraph.Graph, pool *arch.Instances, topo arch.Topology, rung budget.Rung, limit time.Duration) *race.Family {
	return &race.Family{G: g, Pool: pool, Topo: topo, Rungs: budget.Ladder{rung}, Frontier: true,
		MILP: milp.Options{TimeLimit: limit}, Exact: exact.Options{TimeLimit: limit}}
}

// deadlineFamily is family on the cost axis, for SweepByDeadline.
func deadlineFamily(g *taskgraph.Graph, pool *arch.Instances, topo arch.Topology, rung budget.Rung, limit time.Duration) *race.Family {
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
	points, err := Sweep(context.Background(), family(g, pool, arch.PointToPoint{}, budget.RungMILP, 2*time.Minute), Options{})
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
	milpPts, err := Sweep(context.Background(), family(g, pool, arch.PointToPoint{}, budget.RungMILP, 2*time.Minute), Options{})
	if err != nil {
		t.Fatal(err)
	}
	exactPts, err := Sweep(context.Background(), family(g, pool, arch.PointToPoint{}, budget.RungCombinatorial, 2*time.Minute), Options{})
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
		points, err := Sweep(context.Background(), family(g, pool, c.topo, budget.RungCombinatorial, 3*time.Minute), Options{})
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
// strictly increasing makespan, no dominated points, and every point
// validating.
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
		pts, err := Sweep(context.Background(), family(g, pool, arch.PointToPoint{}, budget.RungCombinatorial, time.Minute), Options{})
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
		if filtered := Filter(pts); len(filtered) != len(pts) {
			t.Fatalf("trial %d: sweep emitted dominated points (%d -> %d)", trial, len(pts), len(filtered))
		}
	}
}

// TestDeadlineSweepMatchesCostSweep: sweeping by deadline must trace the
// same frontier as sweeping by cost cap.
func TestDeadlineSweepMatchesCostSweep(t *testing.T) {
	g, lib := expts.Example1()
	pool := expts.Example1Pool(lib)
	byCost, err := Sweep(context.Background(), family(g, pool, arch.PointToPoint{}, budget.RungCombinatorial, time.Minute), Options{})
	if err != nil {
		t.Fatal(err)
	}
	byDeadline, err := SweepByDeadline(context.Background(),
		deadlineFamily(g, pool, arch.PointToPoint{}, budget.RungCombinatorial, time.Minute), Options{}, 1e-3)
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
		deadlineFamily(g, pool, arch.PointToPoint{}, budget.RungMILP, 2*time.Minute), Options{}, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != len(expts.Table2Full) {
		t.Fatalf("deadline sweep found %d points, want %d", len(pts), len(expts.Table2Full))
	}
}

// TestFilterAndDominates covers the frontier utilities.
func TestFilterAndDominates(t *testing.T) {
	mk := func(cost, perf float64) Point {
		return Point{Design: &schedule.Design{Cost: cost, Makespan: perf}}
	}
	a, b, c := mk(5, 10), mk(7, 8), mk(6, 12)
	if !Dominates(a, c) {
		t.Error("a=(5,10) should dominate c=(6,12)")
	}
	if Dominates(a, b) || Dominates(b, a) {
		t.Error("a=(5,10) and b=(7,8) are incomparable")
	}
	out := Filter([]Point{a, b, c})
	if len(out) != 2 {
		t.Fatalf("filtered frontier has %d points, want 2", len(out))
	}
	if out[0].Cost() != 5 || out[1].Cost() != 7 {
		t.Errorf("filter order wrong: %g then %g", out[0].Cost(), out[1].Cost())
	}
	// Duplicate points: exactly one survives.
	out = Filter([]Point{a, mk(5, 10)})
	if len(out) != 1 {
		t.Errorf("duplicate filtering kept %d points", len(out))
	}
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
	notFrontier := family(g, pool, arch.PointToPoint{}, budget.RungCombinatorial, 0)
	notFrontier.Frontier = false
	if _, err := Sweep(context.Background(), notFrontier, Options{}); err == nil {
		t.Error("Sweep accepted a family without frontier points")
	}
	if _, err := Sweep(context.Background(), deadlineFamily(g, pool, arch.PointToPoint{}, budget.RungCombinatorial, 0), Options{}); err == nil {
		t.Error("Sweep accepted a cost-axis family")
	}
	if _, err := SweepByDeadline(context.Background(), family(g, pool, arch.PointToPoint{}, budget.RungCombinatorial, 0), Options{}, 0); err == nil {
		t.Error("SweepByDeadline accepted a makespan-axis family")
	}
}
