package sos

import (
	"context"
	"path/filepath"
	"sync"
	"testing"

	"sos/internal/arch"
	"sos/internal/expts"
	"sos/internal/leakcheck"
	"sos/internal/telemetry"
)

// frontierWorkloads are the paper's three published frontiers.
func frontierWorkloads() []struct {
	name string
	spec Spec
	want []expts.ParetoPoint
} {
	g1, lib1 := expts.Example1()
	g2, lib2 := expts.Example2()
	return []struct {
		name string
		spec Spec
		want []expts.ParetoPoint
	}{
		{"table2", Spec{Graph: g1, Library: lib1, Pool: expts.Example1Pool(lib1)}, expts.Table2Full},
		{"table4", Spec{Graph: g2, Library: lib2, Pool: expts.Example2Pool(lib2)}, expts.Table4},
		{"table5", Spec{Graph: g2, Library: lib2, Pool: expts.Example2Pool(lib2), Topology: arch.Bus{}}, expts.Table5},
	}
}

// sameFrontier asserts two frontiers are bit-identical: same length and
// the exact same cost/perf/status/gap at every index.
func sameFrontier(t *testing.T, want, got []FrontierPoint) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("frontier has %d points, want %d", len(got), len(want))
	}
	for i := range want {
		if want[i].Cost != got[i].Cost || want[i].Perf != got[i].Perf ||
			want[i].Status != got[i].Status || want[i].Gap != got[i].Gap {
			t.Errorf("point %d: (%g,%g,%v,%v), want (%g,%g,%v,%v)", i,
				got[i].Cost, got[i].Perf, got[i].Status, got[i].Gap,
				want[i].Cost, want[i].Perf, want[i].Status, want[i].Gap)
		}
	}
}

// TestFrontierCachedBitIdentical is the tentpole's correctness anchor:
// on all three paper workloads, a cold sweep, a fully cached repeat
// sweep, and a delta-resolved (partially covered) sweep must return
// bit-identical frontiers, with the repeat and delta paths pinned by the
// frontier counters.
func TestFrontierCachedBitIdentical(t *testing.T) {
	leakcheck.Check(t)
	for _, w := range frontierWorkloads() {
		t.Run(w.name, func(t *testing.T) {
			cold, err := Frontier(context.Background(), w.spec)
			if err != nil {
				t.Fatal(err)
			}
			wantPub := make([]FrontierPoint, len(w.want))
			for i, pt := range w.want {
				wantPub[i] = FrontierPoint{Cost: pt.Cost, Perf: pt.Perf, Status: StatusOptimal}
			}
			sameFrontier(t, wantPub, cold)

			tel := telemetry.New(nil)
			c := testCache(t, CacheOptions{Telemetry: tel})
			sp := w.spec
			sp.Cache = c
			sp.Telemetry = tel

			first, err := Frontier(context.Background(), sp)
			if err != nil {
				t.Fatal(err)
			}
			sameFrontier(t, cold, first)
			if got := tel.Get(telemetry.CtrFrontierMisses); got != 1 {
				t.Fatalf("frontier_misses = %d, want 1", got)
			}

			repeat, err := Frontier(context.Background(), sp)
			if err != nil {
				t.Fatal(err)
			}
			sameFrontier(t, cold, repeat)
			if got := tel.Get(telemetry.CtrFrontierHits); got != 1 {
				t.Fatalf("frontier_hits = %d, want 1", got)
			}

			// Delta path: a fresh cache seeded with only the sub-frontier
			// below the head point must solve exactly the head point when
			// asked for the full range, and still match the cold sweep.
			tel2 := telemetry.New(nil)
			c2 := testCache(t, CacheOptions{Telemetry: tel2})
			dsp := w.spec
			dsp.Cache = c2
			dsp.Telemetry = tel2
			dsp.CostCap = cold[0].Cost - 1
			part, err := Frontier(context.Background(), dsp)
			if err != nil {
				t.Fatal(err)
			}
			sameFrontier(t, cold[1:], part)
			dsp.CostCap = 0
			full, err := Frontier(context.Background(), dsp)
			if err != nil {
				t.Fatal(err)
			}
			sameFrontier(t, cold, full)
			if got := tel2.Get(telemetry.CtrFrontierPartialHits); got != 1 {
				t.Fatalf("frontier_partial_hits = %d, want 1", got)
			}
			if got := tel2.Get(telemetry.CtrFrontierDeltaPoints); got != 1 {
				t.Fatalf("frontier_delta_points = %d, want 1", got)
			}
		})
	}
}

// example1Chain is the number of proofs one Example 1 sweep stores: a
// tightened entry per Table2Full point plus the infeasible final cap
// (3, one below the cheapest design).
var example1Chain = len(expts.Table2Full) + 1

// TestFrontierCachePersistAcrossRestart: a swept frontier persists to
// the proof spill and a restarted cache serves the same frontier
// without invoking a solver (pinned by the solver node counters).
func TestFrontierCachePersistAcrossRestart(t *testing.T) {
	leakcheck.Check(t)
	path := filepath.Join(t.TempDir(), "cache.jsonl")
	g, lib := expts.Example1()
	base := Spec{Graph: g, Library: lib, Pool: expts.Example1Pool(lib)}

	c1, err := NewCache(CacheOptions{PersistPath: path})
	if err != nil {
		t.Fatal(err)
	}
	sp := base
	sp.Cache = c1
	cold, err := Frontier(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}

	tel := telemetry.New(nil)
	c2 := testCache(t, CacheOptions{PersistPath: path, Telemetry: tel})
	if restored, skipped := c2.Loaded(); restored != example1Chain || skipped != 0 {
		t.Fatalf("Loaded = (%d, %d), want (%d, 0)", restored, skipped, example1Chain)
	}
	sp = base
	sp.Cache = c2
	sp.Telemetry = tel
	warm, err := Frontier(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}
	sameFrontier(t, cold, warm)
	if n := solverNodes(tel); n != 0 {
		t.Fatalf("restored sweep did solver work (%d nodes), want 0", n)
	}
	if got := tel.Get(telemetry.CtrFrontierHits); got != 1 {
		t.Fatalf("frontier_hits = %d, want 1", got)
	}
}

// TestFrontierSingleflightStorm: concurrent identical sweeps on an empty
// store coalesce to one solving leader; every caller gets the identical
// complete frontier and the store ends with exactly one chain solved.
func TestFrontierSingleflightStorm(t *testing.T) {
	leakcheck.Check(t)
	tel := telemetry.New(nil)
	c := testCache(t, CacheOptions{Telemetry: tel})
	g, lib := expts.Example1()
	sp := Spec{Graph: g, Library: lib, Pool: expts.Example1Pool(lib), Cache: c}

	const callers = 8
	results := make([][]FrontierPoint, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = Frontier(context.Background(), sp)
		}(i)
	}
	wg.Wait()
	if errs[0] != nil {
		t.Fatalf("caller 0: %v", errs[0])
	}
	for i := 1; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		sameFrontier(t, results[0], results[i])
	}
	if len(results[0]) != len(expts.Table2Full) {
		t.Fatalf("frontier has %d points, want %d", len(results[0]), len(expts.Table2Full))
	}
	// Exactly one chain was solved cold; every other caller either
	// coalesced onto it or was served from the store.
	if got := tel.Get(telemetry.CtrFrontierMisses); got != 1 {
		t.Fatalf("frontier_misses = %d, want 1 (dedup failed)", got)
	}
	if c.Len() != example1Chain {
		t.Fatalf("cache holds %d proofs, want %d (one chain)", c.Len(), example1Chain)
	}
}

// solverNodes sums every counter a solver invocation would bump, so
// zero means the call was answered entirely from the cache.
func solverNodes(tel *telemetry.Collector) int64 {
	return tel.Get(telemetry.CtrMapNodes) + tel.Get(telemetry.CtrSchedNodes) +
		tel.Get(telemetry.CtrNodesExpanded)
}

// TestFrontierFillsProofCache: a sweep's chain lands in the proof cache,
// so a single solve at every chain cap — the tightened points and the
// infeasible final cap — is a cached proof that runs no solver.
func TestFrontierFillsProofCache(t *testing.T) {
	c := testCache(t, CacheOptions{})
	g, lib := expts.Example1()
	base := Spec{Graph: g, Library: lib, Pool: expts.Example1Pool(lib), Cache: c}
	pts, err := Frontier(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	capAt := 0.0 // uncapped
	for i := 0; i <= len(pts); i++ {
		tel := telemetry.New(nil)
		sp := base
		sp.CostCap = capAt
		sp.Telemetry = tel
		res, err := Synthesize(context.Background(), sp)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Cached || res.Nodes != 0 || solverNodes(tel) != 0 {
			t.Fatalf("cap %g: cached=%v nodes=%d solver=%d, want a cached proof without solver work",
				capAt, res.Cached, res.Nodes, solverNodes(tel))
		}
		if i == len(pts) {
			if res.Status != StatusInfeasible {
				t.Fatalf("final chain cap %g: status %v, want infeasible", capAt, res.Status)
			}
			break
		}
		if res.Status != StatusOptimal || res.Design.Cost != pts[i].Cost || res.Design.Makespan != pts[i].Perf {
			t.Fatalf("cap %g: %v (%g, %g), want the chain point (%g, %g)", capAt,
				res.Status, res.Design.Cost, res.Design.Makespan, pts[i].Cost, pts[i].Perf)
		}
		capAt = pts[i].Cost - frontierStep
	}
}

// TestFrontierReplacesUntightenedProof pins the tightened-only and
// replace rules: a single solve at cap 12 stores the untightened
// (12, 4), which must not serve the chain's point there, (7, 4), so the
// first sweep is a plain miss. The sweep's tightened entry must replace
// it, so the repeat sweep is a pure hit.
func TestFrontierReplacesUntightenedProof(t *testing.T) {
	tel := telemetry.New(nil)
	c := testCache(t, CacheOptions{Telemetry: tel})
	g, lib := expts.Example1()
	sp := Spec{Graph: g, Library: lib, Pool: expts.Example1Pool(lib), Cache: c, Telemetry: tel, CostCap: 12}
	res, err := Synthesize(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}
	if res.Design.Cost != 12 || res.Design.Makespan != 4 {
		t.Fatalf("cap 12 solve gave (%g, %g), want the untightened (12, 4)", res.Design.Cost, res.Design.Makespan)
	}
	sp.CostCap = 0
	cold, err := Frontier(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}

	if got := tel.Get(telemetry.CtrFrontierMisses); got != 1 {
		t.Fatalf("frontier_misses = %d, want 1 (an untightened proof served a chain point)", got)
	}
	before := solverNodes(tel)
	repeat, err := Frontier(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}
	sameFrontier(t, cold, repeat)
	if got := tel.Get(telemetry.CtrFrontierHits); got != 1 {
		t.Fatalf("frontier_hits = %d, want 1", got)
	}
	if n := solverNodes(tel) - before; n != 0 {
		t.Fatalf("repeat sweep did solver work (%d nodes), want 0", n)
	}
}

// TestFrontierMixedTrafficStorm: sweeps and single solves at chain caps
// race on one cache (run under -race). Whichever stores first, every
// sweep must return the cold frontier, every solve its cap's optimal
// makespan, and a final sweep must be a pure hit: a later untightened
// proof never displaces a stored chain point.
func TestFrontierMixedTrafficStorm(t *testing.T) {
	leakcheck.Check(t)
	tel := telemetry.New(nil)
	c := testCache(t, CacheOptions{Telemetry: tel})
	g, lib := expts.Example1()
	base := Spec{Graph: g, Library: lib, Pool: expts.Example1Pool(lib), Cache: c}
	makespanAt := map[float64]float64{0: 2.5, 13: 3, 12: 4, 10: 4, 6: 7}

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 0 {
				pts, err := Frontier(context.Background(), base)
				if err != nil || len(pts) != len(expts.Table2Full) {
					t.Errorf("sweep: %d points, err %v", len(pts), err)
					return
				}
				for j, pt := range expts.Table2Full {
					if pts[j].Cost != pt.Cost || pts[j].Perf != pt.Perf {
						t.Errorf("sweep point %d: (%g, %g), want (%g, %g)", j, pts[j].Cost, pts[j].Perf, pt.Cost, pt.Perf)
					}
				}
				return
			}
			for costCap, mk := range makespanAt {
				sp := base
				sp.CostCap = costCap
				res, err := Synthesize(context.Background(), sp)
				if err != nil || res.Status != StatusOptimal || res.Design.Makespan != mk {
					t.Errorf("cap %g: %+v, err %v; want optimal makespan %g", costCap, res, err, mk)
				}
			}
		}(i)
	}
	wg.Wait()

	hits := tel.Get(telemetry.CtrFrontierHits)
	solver := telemetry.New(nil)
	sp := base
	sp.Telemetry = solver
	if _, err := Frontier(context.Background(), sp); err != nil {
		t.Fatal(err)
	}
	if got := tel.Get(telemetry.CtrFrontierHits) - hits; got != 1 || solverNodes(solver) != 0 {
		t.Fatalf("final sweep: %d hits, %d solver nodes; want a pure hit", got, solverNodes(solver))
	}
}
