package sos

import (
	"context"
	"math"
	"testing"
	"time"

	"sos/internal/expts"
)

func example1Spec(engine Engine) Spec {
	g, lib := expts.Example1()
	return Spec{Graph: g, Library: lib, Engine: engine, Budget: 2 * time.Minute}
}

func TestSynthesizeAuto(t *testing.T) {
	res, err := Synthesize(context.Background(), example1Spec(EngineAuto))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Optimal || res.Design == nil {
		t.Fatalf("not optimal: %+v", res)
	}
	if math.Abs(res.Design.Makespan-2.5) > 1e-9 {
		t.Errorf("makespan %g, want 2.5", res.Design.Makespan)
	}
}

func TestSynthesizeMILP(t *testing.T) {
	if testing.Short() {
		t.Skip("MILP in -short mode")
	}
	res, err := Synthesize(context.Background(), example1Spec(EngineMILP))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Optimal || res.Design == nil {
		t.Fatalf("not optimal: %+v", res)
	}
	if math.Abs(res.Design.Makespan-2.5) > 1e-9 {
		t.Errorf("makespan %g, want 2.5", res.Design.Makespan)
	}
	if res.ModelStats == nil || res.ModelStats.Constraints == 0 {
		t.Error("MILP stats missing")
	}
}

func TestSynthesizeHeuristic(t *testing.T) {
	res, err := Synthesize(context.Background(), example1Spec(EngineHeuristic))
	if err != nil {
		t.Fatal(err)
	}
	if res.Design == nil {
		t.Fatal("heuristic found nothing")
	}
	if res.Optimal {
		t.Error("heuristic must not claim optimality")
	}
	if res.Design.Makespan < 2.5-1e-9 {
		t.Errorf("heuristic makespan %g beats the proven optimum", res.Design.Makespan)
	}
}

func TestSynthesizeMinCost(t *testing.T) {
	spec := example1Spec(EngineAuto)
	spec.Objective = MinCost
	spec.Deadline = 7
	res, err := Synthesize(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Optimal || math.Abs(res.Design.Cost-5) > 1e-9 {
		t.Fatalf("min cost at deadline 7 = %g, want 5", res.Design.Cost)
	}
}

func TestSynthesizeInfeasible(t *testing.T) {
	spec := example1Spec(EngineAuto)
	spec.CostCap = 3
	res, err := Synthesize(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Infeasible || res.Design != nil {
		t.Errorf("cap 3 should be infeasible: %+v", res)
	}
}

func TestSpecValidation(t *testing.T) {
	if _, err := Synthesize(context.Background(), Spec{}); err == nil {
		t.Error("empty spec accepted")
	}
}

// TestFrontierAuto sweeps Table II. A sweep runs on its own axis, so a
// spec whose point objective is MinCost under a deadline sweeps the same
// frontier.
func TestFrontierAuto(t *testing.T) {
	minCost := example1Spec(EngineAuto)
	minCost.Objective, minCost.Deadline = MinCost, 3
	for _, spec := range []Spec{example1Spec(EngineAuto), minCost} {
		pts, err := Frontier(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if len(pts) != len(expts.Table2Full) {
			t.Fatalf("objective %v: frontier has %d points, want %d", spec.Objective, len(pts), len(expts.Table2Full))
		}
		for i, want := range expts.Table2Full {
			if math.Abs(pts[i].Cost-want.Cost) > 1e-9 || math.Abs(pts[i].Perf-want.Perf) > 1e-9 || pts[i].Status != StatusOptimal {
				t.Errorf("objective %v point %d: (%g,%g) %v, want (%g,%g) optimal",
					spec.Objective, i, pts[i].Cost, pts[i].Perf, pts[i].Status, want.Cost, want.Perf)
			}
		}
	}
}

func TestFrontierByDeadline(t *testing.T) {
	raced := example1Spec(EngineCombinatorial)
	raced.Race = true
	for _, spec := range []Spec{example1Spec(EngineAuto), example1Spec(EngineHeuristic), example1Spec(EngineMILP), raced} {
		pts, err := FrontierByDeadline(context.Background(), spec, 0)
		if err != nil {
			t.Fatalf("%v (race %v): %v", spec.Engine, spec.Race, err)
		}
		if len(pts) != len(expts.Table2Full) {
			t.Fatalf("%v (race %v): deadline frontier has %d points, want %d", spec.Engine, spec.Race, len(pts), len(expts.Table2Full))
		}
		// Slow-to-fast order: last point is the 2.5 design.
		if math.Abs(pts[len(pts)-1].Perf-2.5) > 1e-9 {
			t.Errorf("%v (race %v): fastest point %g, want 2.5", spec.Engine, spec.Race, pts[len(pts)-1].Perf)
		}
		// The same Table II points, slow to fast, all certified.
		for i, p := range pts {
			want := expts.Table2Full[len(pts)-1-i]
			if math.Abs(p.Cost-want.Cost) > 1e-9 || math.Abs(p.Perf-want.Perf) > 1e-9 || p.Status != StatusOptimal {
				t.Errorf("%v (race %v) point %d: (%g,%g) %v, want (%g,%g) optimal",
					spec.Engine, spec.Race, i, p.Cost, p.Perf, p.Status, want.Cost, want.Perf)
			}
		}
	}
}

func TestSimulateRoundTrip(t *testing.T) {
	res, err := Synthesize(context.Background(), example1Spec(EngineAuto))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Simulate(res.Design)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tr.Makespan-res.Design.Makespan) > 1e-9 {
		t.Errorf("simulated makespan %g vs design %g", tr.Makespan, res.Design.Makespan)
	}
	st, err := SimulateSelfTimed(res.Design)
	if err != nil {
		t.Fatal(err)
	}
	if st.Makespan > res.Design.Makespan+1e-9 {
		t.Errorf("self-timed %g exceeds static %g", st.Makespan, res.Design.Makespan)
	}
	if err := Validate(res.Design); err != nil {
		t.Errorf("validate: %v", err)
	}
}

func TestMeasureViaFacade(t *testing.T) {
	res, err := Synthesize(context.Background(), example1Spec(EngineAuto))
	if err != nil {
		t.Fatal(err)
	}
	m := Measure(res.Design)
	if m.Makespan != res.Design.Makespan {
		t.Errorf("metrics makespan %g vs design %g", m.Makespan, res.Design.Makespan)
	}
	if u := m.AvgProcUtilization(); u <= 0 || u > 1 {
		t.Errorf("avg utilization %g out of range", u)
	}
}

func TestTopologiesViaFacade(t *testing.T) {
	for _, topo := range []Topology{PointToPoint(), Bus(), Ring(), SharedMemory(0)} {
		spec := example1Spec(EngineAuto)
		spec.Topology = topo
		res, err := Synthesize(context.Background(), spec)
		if err != nil {
			t.Fatalf("%s: %v", topo.Name(), err)
		}
		if res.Design == nil || !res.Optimal {
			t.Fatalf("%s: no optimal design", topo.Name())
		}
	}
}

func TestQuickstartShape(t *testing.T) {
	// The doc-comment example, executed.
	g := NewGraph("pipeline")
	fir := g.AddSubtask("fir")
	fft := g.AddSubtask("fft")
	g.AddArc(fir, fft, ArcSpec{Volume: 2})
	lib := NewLibrary("boards", 1, 1, 0)
	lib.AddType("dsp", 5, []float64{1, 4})
	lib.AddType("gp", 3, []float64{3, 3})
	res, err := Synthesize(context.Background(), Spec{Graph: g, Library: lib})
	if err != nil {
		t.Fatal(err)
	}
	if res.Design == nil || !res.Optimal {
		t.Fatal("quickstart failed")
	}
	// Best: both on dsp? fir=1,fft=4 serial = 5 on dsp (cost 5);
	// fir@dsp + fft@gp: 1 + transfer 2 + 3 = 6; both@gp: 6.
	if math.Abs(res.Design.Makespan-5) > 1e-9 {
		t.Errorf("quickstart makespan = %g, want 5", res.Design.Makespan)
	}
}
