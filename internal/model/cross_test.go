package model

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"

	"sos/internal/arch"
	"sos/internal/exact"
	"sos/internal/milp"
	"sos/internal/schedule"
	"sos/internal/sim"
	"sos/internal/taskgraph"
)

// TestEnginesAgreeOnRandomInstances is the repository's strongest
// correctness check: on random small instances, the MILP formulation of
// the paper (solved by LP-based branch and bound) and the independent
// combinatorial branch-and-bound must compute the same optimal makespan,
// under every topology, and both designs must pass the independent
// validator and the simulator replay.
func TestEnginesAgreeOnRandomInstances(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-engine sweep in -short mode")
	}
	rng := rand.New(rand.NewSource(crossSeed))
	for trial := 0; trial < crossTrials; trial++ {
		crossEngineTrial(t, rng, trial)
	}
}

// FuzzCrossEngine runs the cross-engine trial on fuzzed instances. The
// seed corpus is TestEnginesAgreeOnRandomInstances's trials: an input
// (seed, trial) replays the instance draws of trials 0..trial-1 from
// seed before running trial, so (crossSeed, k) is that test's trial k.
func FuzzCrossEngine(f *testing.F) {
	for trial := 0; trial < crossTrials; trial++ {
		f.Add(int64(crossSeed), uint8(trial))
	}
	f.Fuzz(func(t *testing.T, seed int64, trial uint8) {
		if testing.Short() {
			t.Skip("cross-engine trial in -short mode")
		}
		if raceEnabled {
			// The seeds are TestEnginesAgreeOnRandomInstances's trials, which
			// that test already runs under the race detector (~70 s there).
			t.Skip("cross-engine seed replay under the race detector")
		}
		rng := rand.New(rand.NewSource(seed))
		for k := 0; k < int(trial); k++ {
			drawCrossInstance(rng, k)
		}
		crossEngineTrial(t, rng, int(trial))
	})
}

const (
	crossSeed   = 2024
	crossTrials = 40
)

// crossInstance is one random cross-engine instance.
type crossInstance struct {
	g       *taskgraph.Graph
	pool    *arch.Instances
	topo    arch.Topology
	costCap float64
}

// drawCrossInstance draws trial's instance from rng: up to 5 subtasks,
// a random 2-type library, the topology cycling p2p/bus/ring with the
// trial, and half the time a random cost cap. It returns nil, after the
// graph and library draws, when the pool is empty or over 6 instances.
func drawCrossInstance(rng *rand.Rand, trial int) *crossInstance {
	g := taskgraph.Random(rng, taskgraph.RandomSpec{
		Subtasks:  2 + rng.Intn(4), // up to 5 subtasks
		ArcProb:   0.3 + rng.Float64()*0.4,
		MaxVol:    3,
		Fractions: trial%2 == 0,
	})
	g.MustFreeze()
	lib := arch.RandomLibrary(rng, g, 2)
	pool := arch.AutoPool(lib, g, 2)
	if pool.NumProcs() == 0 || pool.NumProcs() > 6 {
		return nil
	}
	in := &crossInstance{g: g, pool: pool}
	switch trial % 3 {
	case 0:
		in.topo = arch.PointToPoint{}
	case 1:
		in.topo = arch.Bus{}
	default:
		in.topo = arch.Ring{}
	}
	// Random cost cap: between the cheapest single type and the sum
	// of everything, or uncapped.
	if rng.Intn(2) == 0 {
		total := 0.0
		for _, p := range pool.Procs() {
			total += pool.Cost(p.ID)
		}
		in.costCap = 2 + rng.Float64()*total
	}
	return in
}

// crossEngineTrial draws trial's instance from rng and solves it with the
// MILP and the combinatorial engine: the two must agree on feasibility
// and on the optimal makespan, and every Optimal design must pass the
// validator and replay through the simulator to its own makespan.
func crossEngineTrial(t testing.TB, rng *rand.Rand, trial int) {
	t.Helper()
	in := drawCrossInstance(rng, trial)
	if in == nil {
		return
	}
	g, pool, topo, costCap := in.g, in.pool, in.topo, in.costCap

	m, err := Build(g, pool, topo, Options{Objective: MinMakespan, CostCap: costCap})
	if err != nil {
		t.Fatalf("trial %d: %v", trial, err)
	}
	design, sol, err := m.Solve(context.Background(), &milp.Options{TimeLimit: 90 * time.Second})
	if err != nil {
		t.Fatalf("trial %d: %v", trial, err)
	}

	res, err := exact.Synthesize(context.Background(), g, pool, topo, exact.Options{
		Objective: exact.MinMakespan, CostCap: costCap, TimeLimit: 90 * time.Second,
	})
	if err != nil {
		t.Fatalf("trial %d: %v", trial, err)
	}
	if !res.Optimal {
		t.Fatalf("trial %d: combinatorial engine not exhausted", trial)
	}

	switch sol.Status {
	case milp.Optimal:
		if res.Design == nil {
			t.Fatalf("trial %d (%s): MILP optimal %g but combinatorial infeasible",
				trial, topo.Name(), design.Makespan)
		}
		if math.Abs(design.Makespan-res.Design.Makespan) > 1e-6 {
			t.Fatalf("trial %d (%s, cap %g): MILP %g vs combinatorial %g\nMILP:\n%s\nexact:\n%s",
				trial, topo.Name(), costCap, design.Makespan, res.Design.Makespan,
				design.Gantt(60), res.Design.Gantt(60))
		}
		for engine, d := range map[string]*schedule.Design{"MILP": design, "combinatorial": res.Design} {
			if err := d.Validate(nil); err != nil {
				t.Fatalf("trial %d: %s design invalid: %v", trial, engine, err)
			}
			tr, err := sim.Replay(d)
			if err != nil {
				t.Fatalf("trial %d: %s design fails replay: %v", trial, engine, err)
			}
			if math.Abs(tr.Makespan-d.Makespan) > 1e-6*math.Max(1, math.Abs(d.Makespan)) {
				t.Fatalf("trial %d: %s design replays to makespan %g, says %g", trial, engine, tr.Makespan, d.Makespan)
			}
		}
	case milp.Infeasible:
		if res.Design != nil {
			t.Fatalf("trial %d (%s, cap %g): MILP infeasible but combinatorial found %v",
				trial, topo.Name(), costCap, res.Design)
		}
	default:
		t.Logf("trial %d: MILP hit budget (%v after %d nodes); skipping comparison",
			trial, sol.Status, sol.Nodes)
	}
}

// TestMemoryExtensionAcrossEngines checks the §5 memory-cost extension:
// the MILP's memory sizing must match the design's static footprint and
// both engines agree on cost under MinCost.
func TestMemoryExtensionAcrossEngines(t *testing.T) {
	g := taskgraph.New("mem")
	a := g.AddSubtask("A")
	b := g.AddSubtask("B")
	c := g.AddSubtask("C")
	g.AddArc(a, b, taskgraph.ArcSpec{Volume: 1})
	g.AddArc(a, c, taskgraph.ArcSpec{Volume: 1})
	g.SetMem(a, 2)
	g.SetMem(b, 4)
	g.SetMem(c, 6)
	g.MustFreeze()
	lib := arch.NewLibrary("lib", 1, 1, 0)
	lib.MemCostPerUnit = 0.5
	lib.AddType("p1", 4, []float64{1, 2, 2})
	lib.AddType("p2", 6, []float64{2, 1, 1})
	pool := arch.InstancePool(lib, []int{1, 1})

	m, err := Build(g, pool, arch.PointToPoint{}, Options{Objective: MinMakespan, Memory: true})
	if err != nil {
		t.Fatal(err)
	}
	design, sol, err := m.Solve(context.Background(), &milp.Options{TimeLimit: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != milp.Optimal {
		t.Fatalf("status %v", sol.Status)
	}
	// Total memory is mapping-independent under the static model: 12
	// units at 0.5 each = 6 extra cost, and the MILP's M columns must
	// match the extracted footprint.
	sizes := design.MemSizes()
	for p, want := range sizes {
		if got := sol.X[m.MemD[p]]; math.Abs(got-want) > 1e-6 {
			t.Errorf("M(%s) = %g, footprint %g", pool.Proc(p).Name, got, want)
		}
	}
	if err := design.Validate(nil); err != nil {
		t.Fatalf("invalid: %v", err)
	}
	// Cost must include the memory term.
	var procLink float64
	for _, p := range design.Procs {
		procLink += pool.Cost(p)
	}
	procLink += float64(len(design.Links)) * lib.LinkCost
	if math.Abs(design.Cost-(procLink+6)) > 1e-6 {
		t.Errorf("cost %g does not include the 6-unit memory term (base %g)", design.Cost, procLink)
	}
}

// TestNoOverlapVariantAcrossEngines: the §5 no-I/O-overlap variant must
// (a) never beat the overlapped model, (b) agree between engines, and
// (c) produce designs passing the no-overlap validator.
func TestNoOverlapVariantAcrossEngines(t *testing.T) {
	if testing.Short() {
		t.Skip("MILP solves in -short mode")
	}
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 10; trial++ {
		g := taskgraph.Random(rng, taskgraph.RandomSpec{
			Subtasks: 3 + rng.Intn(2),
			ArcProb:  0.5,
		})
		g.MustFreeze()
		lib := arch.RandomLibrary(rng, g, 2)
		pool := arch.AutoPool(lib, g, 2)
		if pool.NumProcs() > 5 {
			continue
		}

		m, err := Build(g, pool, arch.PointToPoint{}, Options{Objective: MinMakespan, NoOverlapIO: true})
		if err != nil {
			t.Fatal(err)
		}
		dNo, sol, err := m.Solve(context.Background(), &milp.Options{TimeLimit: 90 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		if sol.Status != milp.Optimal {
			t.Logf("trial %d: budget hit, skipping", trial)
			continue
		}
		if err := dNo.Validate(&schedule.ValidateOptions{NoOverlapIO: true}); err != nil {
			t.Fatalf("trial %d: no-overlap design violates the variant rules: %v", trial, err)
		}

		res, err := exact.Synthesize(context.Background(), g, pool, arch.PointToPoint{}, exact.Options{
			Objective: exact.MinMakespan, NoOverlapIO: true, TimeLimit: 90 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Optimal || res.Design == nil {
			t.Fatalf("trial %d: combinatorial engine failed", trial)
		}
		if math.Abs(dNo.Makespan-res.Design.Makespan) > 1e-6 {
			t.Fatalf("trial %d: no-overlap MILP %g vs combinatorial %g", trial, dNo.Makespan, res.Design.Makespan)
		}

		// The overlapped model can only be as fast or faster.
		resOv, err := exact.Synthesize(context.Background(), g, pool, arch.PointToPoint{}, exact.Options{
			Objective: exact.MinMakespan, TimeLimit: 90 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		if resOv.Design.Makespan > res.Design.Makespan+1e-9 {
			t.Errorf("trial %d: overlap model %g slower than no-overlap %g",
				trial, resOv.Design.Makespan, res.Design.Makespan)
		}
	}
}
