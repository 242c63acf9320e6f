package sos

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"

	"sos/internal/arch"
	"sos/internal/exact"
	"sos/internal/expts"
	"sos/internal/leakcheck"
	"sos/internal/model"
	"sos/internal/taskgraph"
)

// The entry-point contract: Synthesize, SolveBatch and Frontier solve
// every bound through one problem family and one portfolio point, so they
// agree on every answer, race alike, and build alike.

// TestRacedBatchMembersRace: the members of a raced multi-cap MILP batch
// race, as the same specs do when solved alone — every solved member is
// marked Raced and names the rung that produced it.
func TestRacedBatchMembersRace(t *testing.T) {
	defer leakcheck.Check(t)
	g, lib := expts.Example1()
	base := Spec{Graph: g, Library: lib, Pool: expts.Example1Pool(lib), Engine: EngineMILP,
		Race: true, Budget: 2 * time.Minute}
	at := func(cap float64) Spec { s := base; s.CostCap = cap; return s }
	batch := SolveBatch(context.Background(), []Spec{at(14), at(10)}, nil)
	for i, br := range batch {
		if br.Err != nil {
			t.Fatalf("slot %d: %v", i, br.Err)
		}
		r := br.Result
		if r.Cached {
			continue // served by cover-down: no solve ran
		}
		if r.Status != StatusOptimal {
			t.Fatalf("slot %d: status %v, want optimal", i, r.Status)
		}
		if !r.Raced || r.Rung == "" {
			t.Errorf("slot %d: Raced=%v Rung=%q, want a raced member with its winning rung", i, r.Raced, r.Rung)
		}
	}
}

// TestEntryPointBuilds pins the model builds behind each entry point: a
// MILP Synthesize builds one model, capped or uncapped, and a MILP batch
// group builds at most one per axis — one here, on the makespan axis.
func TestEntryPointBuilds(t *testing.T) {
	g, lib := expts.Example1()
	base := Spec{Graph: g, Library: lib, Pool: expts.Example1Pool(lib), Engine: EngineMILP, Budget: 2 * time.Minute}
	for _, cap := range []float64{0, 7} {
		sp := base
		sp.CostCap = cap
		b0 := model.BuildCount()
		res, err := Synthesize(context.Background(), sp)
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != StatusOptimal {
			t.Fatalf("cap %g: status %v", cap, res.Status)
		}
		if got := model.BuildCount() - b0; got != 1 {
			t.Errorf("Synthesize at cap %g built %d models, want 1", cap, got)
		}
	}
	at := func(cap float64) Spec { s := base; s.CostCap = cap; return s }
	b0 := model.BuildCount()
	for i, br := range SolveBatch(context.Background(), []Spec{at(14), at(10), at(7), at(5), at(3)}, nil) {
		if br.Err != nil {
			t.Fatalf("slot %d: %v", i, br.Err)
		}
	}
	if got := model.BuildCount() - b0; got != 1 {
		t.Errorf("MILP batch group built %d models, want 1", got)
	}
}

// TestBatchGroupsByTopologyValue: shared memory with and without a module
// cost are two problems that share a topology name. A batch holding one
// member of each solves, and stores the proof of, each member on its own
// topology — the answers a solve of each spec alone gives.
func TestBatchGroupsByTopologyValue(t *testing.T) {
	ctx := context.Background()
	g, lib := expts.Example1()
	for _, engine := range []Engine{EngineCombinatorial, EngineMILP} {
		base := Spec{Graph: g, Library: lib, Pool: expts.Example1Pool(lib), Engine: engine, Budget: 2 * time.Minute}
		specs := []Spec{base, base}
		specs[0].Topology, specs[0].CostCap = SharedMemory(0), 14
		specs[1].Topology, specs[1].CostCap = SharedMemory(5), 10
		c, err := NewCache(CacheOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		batch := SolveBatch(ctx, specs, c)
		for i, sp := range specs {
			want, err := Synthesize(ctx, sp)
			if err != nil {
				t.Fatal(err)
			}
			if want.Status != StatusOptimal {
				t.Fatalf("%v slot %d alone: status %v", engine, i, want.Status)
			}
			if batch[i].Err != nil {
				t.Fatalf("%v slot %d: %v", engine, i, batch[i].Err)
			}
			sp.Cache = c
			stored, err := Synthesize(ctx, sp)
			if err != nil {
				t.Fatal(err)
			}
			if !stored.Cached {
				t.Errorf("%v slot %d: the batch stored no proof for its spec", engine, i)
			}
			for _, r := range []struct {
				what string
				res  *Result
			}{{"batch", batch[i].Result}, {"stored proof", stored}} {
				d := r.res.Design
				switch {
				case r.res.Status != StatusOptimal || d == nil:
					t.Errorf("%v slot %d %s: status %v, want optimal", engine, i, r.what, r.res.Status)
				case d.Topo != sp.Topology:
					t.Errorf("%v slot %d %s: design on %#v, want %#v", engine, i, r.what, d.Topo, sp.Topology)
				case !sameMakespan(d.Makespan, want.Design.Makespan) || !sameMakespan(d.Cost, want.Design.Cost):
					t.Errorf("%v slot %d %s: (cost %g, makespan %g), alone (%g, %g)", engine, i, r.what,
						d.Cost, d.Makespan, want.Design.Cost, want.Design.Makespan)
				}
			}
		}
	}
}

// TestExhaustedSolveKeepsEngineStats: a solve that ends with neither a
// design nor a proof still reports what its engine established — the
// combinatorial engine's root lower bound and node count, the MILP's
// nodes and model statistics.
func TestExhaustedSolveKeepsEngineStats(t *testing.T) {
	ctx := context.Background()
	g, lib := expts.Example2()
	pool := expts.Example2Pool(lib)
	sp := Spec{Graph: g, Library: lib, Pool: pool, CostCap: 15, Engine: EngineCombinatorial,
		Budget: time.Nanosecond}
	res, err := Synthesize(ctx, sp)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := exact.Synthesize(ctx, g, pool, arch.PointToPoint{},
		exact.Options{CostCap: sp.CostCap, TimeLimit: sp.Budget})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusBudgetExhausted || res.Design != nil {
		t.Fatalf("combinatorial, 1ns budget: status %v design %v, want budget-exhausted", res.Status, res.Design != nil)
	}
	if eng.Bound <= 0 || res.Bound != eng.Bound || res.Nodes != eng.Nodes {
		t.Errorf("combinatorial, 1ns budget: bound %g nodes %d, engine alone: bound %g nodes %d",
			res.Bound, res.Nodes, eng.Bound, eng.Nodes)
	}
	if !math.IsInf(res.Gap, 1) {
		t.Errorf("combinatorial, 1ns budget: gap %g, want +Inf", res.Gap)
	}

	// The MILP: stall the search past its budget at the root, before it
	// finds an incumbent.
	const stallAt = 1
	sp.Engine, sp.Budget = EngineMILP, 250*time.Millisecond
	sp.Hooks = &SolverHooks{OnNode: func(n int) {
		if n == stallAt {
			time.Sleep(sp.Budget)
		}
	}}
	res, err = Synthesize(ctx, sp)
	if err != nil {
		t.Fatal(err)
	}
	if res.Design != nil {
		t.Skipf("MILP found a design within %d nodes; no exhausted result to check", stallAt)
	}
	if res.Status != StatusBudgetExhausted || res.Nodes < stallAt || res.ModelStats == nil {
		t.Errorf("MILP stalled at node %d: status %v nodes %d model stats %v, want budget-exhausted with >= %d nodes and the model's stats",
			stallAt, res.Status, res.Nodes, res.ModelStats != nil, stallAt)
	}
}

// TestRacedForcedPoolBudget: a raced solve returns once one rung proves.
// The race waits for every rung, so the heuristic rung's configuration
// walk must stop on cancellation, and must not enumerate all 2^n count
// vectors of an n-type forced-mapping pool.
func TestRacedForcedPoolBudget(t *testing.T) {
	defer leakcheck.Check(t)
	const n = 22
	rng := rand.New(rand.NewSource(n))
	g := taskgraph.ForkJoin(rng, taskgraph.StructuredSpec{Subtasks: n, MaxFan: 4}).MustFreeze()
	pool := arch.ForcedPool(rng, n)
	sp := Spec{Graph: g, Library: pool.Library(), Pool: pool, Engine: EngineMILP, Race: true,
		Budget: 200 * time.Millisecond}
	start := time.Now()
	res, err := Synthesize(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > time.Second {
		t.Errorf("raced %d-type forced-pool solve took %v, want under 1s", n, took)
	}
	if res.Design == nil || !res.Raced {
		t.Fatalf("raced solve: status %v raced %v, want a raced design", res.Status, res.Raced)
	}
}

// TestHeuristicMissNeverInfeasible: at a cap where the combinatorial
// engine proves a design exists, EngineHeuristic may miss, but a miss is
// no proof: it must never report Infeasible.
func TestHeuristicMissNeverInfeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	misses := 0
	for trial := 0; trial < 216; trial++ {
		in := drawEntryInstance(rng, trial)
		if in == nil {
			continue
		}
		base := in.spec(EngineCombinatorial, false)
		cheapest := base
		cheapest.Objective, cheapest.Deadline, cheapest.CostCap = MinCost, 1e9, 0
		mc, err := Synthesize(context.Background(), cheapest)
		if err != nil {
			t.Fatal(err)
		}
		if mc.Status != StatusOptimal {
			t.Fatalf("trial %d: min cost status %v", trial, mc.Status)
		}
		sp := base
		sp.Engine, sp.CostCap = EngineHeuristic, mc.Design.Cost
		res, err := Synthesize(context.Background(), sp)
		if err != nil {
			t.Fatal(err)
		}
		if res.Infeasible || res.Status == StatusInfeasible {
			t.Errorf("trial %d (%s): heuristic claims infeasible at cap %g, where a design costs %g",
				trial, in.topo.Name(), sp.CostCap, mc.Design.Cost)
		}
		if res.Design == nil {
			misses++
			if res.Status != StatusBudgetExhausted {
				t.Errorf("trial %d: heuristic miss status %v, want budget-exhausted", trial, res.Status)
			}
		}
	}
	t.Logf("%d heuristic misses", misses)
}

// FuzzEntryPoints checks that the three entry points answer one bound
// alike: on instances drawn as FuzzCrossEngine draws them, Synthesize, a
// two-cap SolveBatch and the covering Frontier point agree on the
// makespan (or on infeasibility) at each cap, for the MILP and the
// combinatorial engine, raced and not. An input (seed, trial) replays
// the draws of trials 0..trial-1 from seed before drawing trial.
func FuzzEntryPoints(f *testing.F) {
	for _, trial := range []uint8{0, 1, 2, 5} {
		f.Add(int64(7), trial)
	}
	f.Fuzz(func(t *testing.T, seed int64, trial uint8) {
		if testing.Short() {
			t.Skip("entry-point trial in -short mode")
		}
		if raceEnabled {
			t.Skip("entry-point trial under the race detector")
		}
		rng := rand.New(rand.NewSource(seed))
		for k := 0; k < int(trial); k++ {
			drawEntryInstance(rng, k)
		}
		in := drawEntryInstance(rng, int(trial))
		if in == nil {
			return
		}
		total := 0.0
		for _, p := range in.pool.Procs() {
			total += in.pool.Cost(p.ID)
		}
		caps := []float64{in.costCap, math.Floor(total / 2)}
		if in.costCap > 0 {
			caps[1] = math.Floor(in.costCap / 2)
		}
		// want[i] is the optimal makespan at caps[i], +Inf when infeasible.
		var want []float64
		for _, engine := range []Engine{EngineCombinatorial, EngineMILP} {
			for _, raced := range []bool{false, true} {
				base := in.spec(engine, raced)
				got, ok := entryPointMakespans(t, base, caps)
				if !ok {
					t.Logf("trial %d: %v raced=%v hit its budget; skipping", trial, engine, raced)
					continue
				}
				if want == nil {
					for _, g := range got {
						want = append(want, g[0])
					}
				}
				for i := range caps {
					for j, v := range got[i] {
						if !sameMakespan(v, want[i]) {
							t.Fatalf("trial %d (%s), cap %g, %v raced=%v: %s makespan %g, want %g",
								trial, in.topo.Name(), caps[i], engine, raced,
								[]string{"Synthesize", "SolveBatch", "Frontier"}[j], v, want[i])
						}
					}
				}
			}
		}
	})
}

// entryPointMakespans answers each cap three ways — Synthesize, one
// SolveBatch of every cap, the covering point of one Frontier — and
// returns the makespans per cap (+Inf for a proven infeasible cap). ok is
// false when some solve ended without a proof.
func entryPointMakespans(t *testing.T, base Spec, caps []float64) (got [][3]float64, ok bool) {
	t.Helper()
	ctx := context.Background()
	makespan := func(r *Result) (float64, bool) {
		switch r.Status {
		case StatusOptimal:
			return r.Design.Makespan, true
		case StatusInfeasible:
			return math.Inf(1), true
		}
		return 0, false
	}
	specs := make([]Spec, len(caps))
	for i, c := range caps {
		specs[i] = base
		specs[i].CostCap = c
	}
	batch := SolveBatch(ctx, specs, nil)
	pts, err := Frontier(ctx, base)
	if err != nil {
		return nil, false
	}
	got = make([][3]float64, len(caps))
	for i, sp := range specs {
		res, err := Synthesize(ctx, sp)
		if err != nil {
			t.Fatal(err)
		}
		if batch[i].Err != nil {
			t.Fatal(batch[i].Err)
		}
		var okS, okB bool
		if got[i][0], okS = makespan(res); !okS {
			return nil, false
		}
		if got[i][1], okB = makespan(batch[i].Result); !okB {
			return nil, false
		}
		// The frontier is a step function of the cap: the covering point
		// is the costliest one within it.
		got[i][2] = math.Inf(1)
		for _, p := range pts {
			if sp.CostCap <= 0 || p.Cost <= sp.CostCap+1e-9 {
				got[i][2] = p.Perf
				break
			}
		}
	}
	return got, true
}

func sameMakespan(a, b float64) bool {
	if math.IsInf(a, 1) || math.IsInf(b, 1) {
		return math.IsInf(a, 1) && math.IsInf(b, 1)
	}
	return math.Abs(a-b) <= 1e-6*math.Max(1, math.Abs(b))
}

// entryInstance is one random instance of the entry-point checks.
type entryInstance struct {
	g       *Graph
	lib     *Library
	pool    *Pool
	topo    Topology
	costCap float64
}

func (in *entryInstance) spec(engine Engine, raced bool) Spec {
	return Spec{Graph: in.g, Library: in.lib, Pool: in.pool, Topology: in.topo, CostCap: in.costCap,
		Engine: engine, Race: raced, Budget: 30 * time.Second}
}

// drawEntryInstance draws trial's instance exactly as FuzzCrossEngine
// draws it: up to 5 subtasks, a random 2-type library, the topology
// cycling p2p/bus/ring with the trial, and half the time a random cost
// cap. It returns nil, after the graph and library draws, when the pool
// is empty or over 6 instances.
func drawEntryInstance(rng *rand.Rand, trial int) *entryInstance {
	g := taskgraph.Random(rng, taskgraph.RandomSpec{
		Subtasks:  2 + rng.Intn(4),
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
	in := &entryInstance{g: g, lib: lib, pool: pool}
	switch trial % 3 {
	case 0:
		in.topo = arch.PointToPoint{}
	case 1:
		in.topo = arch.Bus{}
	default:
		in.topo = arch.Ring{}
	}
	if rng.Intn(2) == 0 {
		total := 0.0
		for _, p := range pool.Procs() {
			total += pool.Cost(p.ID)
		}
		in.costCap = 2 + rng.Float64()*total
	}
	return in
}
