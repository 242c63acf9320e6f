package heur

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"

	"sos/internal/arch"
	"sos/internal/expts"
	"sos/internal/schedule"
	"sos/internal/taskgraph"
)

func TestTimelineEarliestFit(t *testing.T) {
	tl := &timeline{}
	if got := tl.earliestFit(0, 5); got != 0 {
		t.Errorf("empty timeline fit = %g, want 0", got)
	}
	tl.reserve(2, 3) // busy [2,5)
	if got := tl.earliestFit(0, 2); got != 0 {
		t.Errorf("gap before = %g, want 0", got)
	}
	if got := tl.earliestFit(0, 3); got != 5 {
		t.Errorf("no gap before = %g, want 5", got)
	}
	if got := tl.earliestFit(3, 1); got != 5 {
		t.Errorf("inside busy = %g, want 5", got)
	}
	tl.reserve(7, 1) // busy [2,5) [7,8)
	if got := tl.earliestFit(0, 2); got != 0 {
		t.Errorf("first gap = %g, want 0", got)
	}
	if got := tl.earliestFit(4, 2); got != 5 {
		t.Errorf("middle gap = %g, want 5", got)
	}
	if got := tl.earliestFit(4, 3); got != 8 {
		t.Errorf("after all = %g, want 8", got)
	}
}

func TestTimelineReserveZero(t *testing.T) {
	tl := &timeline{}
	tl.reserve(1, 0) // ignored
	if len(tl.busy) != 0 {
		t.Errorf("zero-length reservation stored")
	}
}

func TestTimelineOverlapPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on overlapping reservation")
		}
	}()
	tl := &timeline{}
	tl.reserve(0, 5)
	tl.reserve(3, 1)
}

func TestListScheduleExample1Uniprocessor(t *testing.T) {
	g, lib := expts.Example1()
	pool := expts.Example1Pool(lib)
	// All four subtasks on p2a (instance index of type p2 is 2 with pool
	// layout p1a,p1b,p2a,p2b,p3a,p3b).
	var p2a arch.ProcID = -1
	for _, p := range pool.Procs() {
		if p.Name == "p2a" {
			p2a = p.ID
		}
	}
	mapping := []arch.ProcID{p2a, p2a, p2a, p2a}
	d, err := ListSchedule(g, pool, arch.PointToPoint{}, mapping)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(nil); err != nil {
		t.Fatalf("invalid schedule: %v", err)
	}
	// Serial sum on p2: 3+1+2+1 = 7 (the paper's Design 4).
	if math.Abs(d.Makespan-7) > 1e-9 {
		t.Errorf("makespan %g, want 7", d.Makespan)
	}
	if math.Abs(d.Cost-5) > 1e-9 {
		t.Errorf("cost %g, want 5", d.Cost)
	}
	if len(d.Links) != 0 {
		t.Errorf("uniprocessor design has %d links", len(d.Links))
	}
}

func TestListScheduleRejectsIncapableMapping(t *testing.T) {
	g, lib := expts.Example1()
	pool := expts.Example1Pool(lib)
	var p3a arch.ProcID = -1
	for _, p := range pool.Procs() {
		if p.Name == "p3a" {
			p3a = p.ID
		}
	}
	// p3 cannot execute S1.
	if _, err := ListSchedule(g, pool, arch.PointToPoint{}, []arch.ProcID{p3a, p3a, p3a, p3a}); err == nil {
		t.Error("expected error for incapable mapping")
	}
}

func TestETFExample1(t *testing.T) {
	g, lib := expts.Example1()
	pool := expts.Example1Pool(lib)
	procs := make([]arch.ProcID, pool.NumProcs())
	for i := range procs {
		procs[i] = arch.ProcID(i)
	}
	d, err := ETF(g, pool, arch.PointToPoint{}, procs)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(nil); err != nil {
		t.Fatalf("invalid ETF schedule: %v", err)
	}
	// ETF is a heuristic: it must be feasible and no better than the
	// proven optimum (2.5), and should comfortably beat serial (7).
	if d.Makespan < 2.5-1e-9 {
		t.Errorf("ETF makespan %g beats the proven optimum 2.5", d.Makespan)
	}
	if d.Makespan > 7+1e-9 {
		t.Errorf("ETF makespan %g worse than the uniprocessor bound 7", d.Makespan)
	}
}

func TestSynthesizeExample1WithinCaps(t *testing.T) {
	g, lib := expts.Example1()
	for _, cap := range []float64{14, 13, 7, 5} {
		d, err := Synthesize(g, lib, arch.PointToPoint{}, SynthOptions{CostCap: cap, MaxPerType: 2})
		if err != nil {
			t.Fatalf("cap %g: %v", cap, err)
		}
		if err := d.Validate(nil); err != nil {
			t.Fatalf("cap %g: invalid design: %v", cap, err)
		}
		if d.Cost > cap+1e-9 {
			t.Errorf("cap %g: design cost %g over cap", cap, d.Cost)
		}
	}
}

func TestSynthesizeInfeasibleCap(t *testing.T) {
	g, lib := expts.Example1()
	if _, err := Synthesize(g, lib, arch.PointToPoint{}, SynthOptions{CostCap: 3}); err == nil {
		t.Error("expected no feasible configuration under cap 3")
	}
}

func TestSynthesizeBusAndRing(t *testing.T) {
	g, lib := expts.Example1()
	for _, topo := range []arch.Topology{arch.Bus{}, arch.Ring{}} {
		d, err := Synthesize(g, lib, topo, SynthOptions{MaxPerType: 2})
		if err != nil {
			t.Fatalf("%s: %v", topo.Name(), err)
		}
		if err := d.Validate(nil); err != nil {
			t.Fatalf("%s: invalid design: %v", topo.Name(), err)
		}
	}
}

// TestSynthesizeOnPoolCanceled: a canceled context stops the
// configuration walk promptly. Every type of the library runs every
// subtask, so no cut applies and a full walk visits 2^16 count vectors.
func TestSynthesizeOnPoolCanceled(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := taskgraph.Random(rng, taskgraph.RandomSpec{Subtasks: 8, ArcProb: 0.4, MaxVol: 3})
	g.MustFreeze()
	const types = 16
	lib := arch.NewLibrary("wide", 1, 1, 0)
	copies := make([]int, types)
	for i := range copies {
		exec := make([]float64, g.NumSubtasks())
		for a := range exec {
			exec[a] = float64(1 + rng.Intn(5))
		}
		lib.AddType("", float64(1+rng.Intn(6)), exec)
		copies[i] = 1
	}
	pool := arch.InstancePool(lib, copies)

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if d := SynthesizeOnPool(canceled, g, pool, arch.PointToPoint{}, 0); d != nil {
		t.Errorf("a walk canceled before it started returned a design")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	SynthesizeOnPool(ctx, g, pool, arch.PointToPoint{}, 0)
	if took := time.Since(start); took > time.Second {
		t.Errorf("walk ran %v past a 20ms context deadline", took)
	}
}

// TestSynthesizeOnPoolForcedPool: on a forced-mapping pool every subtask
// has one capable type, so the capability cut leaves a single count
// vector of the 2^24 and the walk finishes at once, using every instance.
func TestSynthesizeOnPoolForcedPool(t *testing.T) {
	const n = 24
	rng := rand.New(rand.NewSource(n))
	g := taskgraph.ForkJoin(rng, taskgraph.StructuredSpec{Subtasks: n, MaxFan: 4}).MustFreeze()
	pool := arch.ForcedPool(rng, n)
	start := time.Now()
	d := SynthesizeOnPool(context.Background(), g, pool, arch.PointToPoint{}, 0)
	if took := time.Since(start); took > time.Second {
		t.Errorf("forced-pool walk took %v", took)
	}
	if d == nil || len(d.Procs) != n {
		t.Fatalf("forced-pool design %v, want one using all %d instances", d, n)
	}
	if c := SynthesizeOnPool(context.Background(), g, pool, arch.PointToPoint{}, n-1); c != nil {
		t.Errorf("cap %d admits no design of %d unit-cost processors, got cost %g", n-1, n, c.Cost)
	}
}

func TestCanonicalizeMakesLowInstancesUsed(t *testing.T) {
	g, lib := expts.Example1()
	pool := expts.Example1Pool(lib)
	// Deliberately use the *second* instances (p1b, p2b).
	var p1b, p2b arch.ProcID = -1, -1
	for _, p := range pool.Procs() {
		switch p.Name {
		case "p1b":
			p1b = p.ID
		case "p2b":
			p2b = p.ID
		}
	}
	d, err := ListSchedule(g, pool, arch.PointToPoint{}, []arch.ProcID{p1b, p2b, p2b, p1b})
	if err != nil {
		t.Fatal(err)
	}
	canon, err := schedule.Canonicalize(d)
	if err != nil {
		t.Fatal(err)
	}
	if err := canon.Validate(nil); err != nil {
		t.Fatalf("canonicalized design invalid: %v", err)
	}
	for _, p := range canon.Procs {
		if canon.Pool.Proc(p).Index != 0 {
			t.Errorf("canonical design uses non-first instance %s", canon.Pool.Proc(p).Name)
		}
	}
	if canon.Makespan != d.Makespan || canon.Cost != d.Cost {
		t.Errorf("canonicalization changed cost/perf: %v vs %v", canon, d)
	}
}

// TestETFRandomGraphsAlwaysValid stress-tests the scheduler machinery:
// every ETF schedule on random graphs must pass the independent validator,
// under all three topologies.
func TestETFRandomGraphsAlwaysValid(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 120; trial++ {
		g := taskgraph.Random(rng, taskgraph.RandomSpec{
			Subtasks:  2 + rng.Intn(9),
			ArcProb:   0.25 + rng.Float64()*0.4,
			MaxVol:    3,
			Fractions: trial%2 == 0,
		})
		if err := g.Freeze(); err != nil {
			t.Fatal(err)
		}
		lib := arch.RandomLibrary(rng, g, 3)
		pool := arch.AutoPool(lib, g, 2)
		if pool.NumProcs() == 0 {
			continue
		}
		procs := make([]arch.ProcID, pool.NumProcs())
		for i := range procs {
			procs[i] = arch.ProcID(i)
		}
		for _, topo := range []arch.Topology{arch.PointToPoint{}, arch.Bus{}, arch.Ring{}} {
			d, err := ETF(g, pool, topo, procs)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, topo.Name(), err)
			}
			if err := d.Validate(nil); err != nil {
				t.Fatalf("trial %d %s: invalid: %v", trial, topo.Name(), err)
			}
		}
	}
}
