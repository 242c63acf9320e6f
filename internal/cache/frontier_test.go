package cache

import (
	"context"
	"path/filepath"
	"testing"
	"time"

	"sos/internal/arch"
	"sos/internal/budget"
	"sos/internal/exact"
	"sos/internal/expts"
	"sos/internal/pareto"
	"sos/internal/race"
	"sos/internal/taskgraph"
	"sos/internal/telemetry"
)

// example1Chain is the number of entries one full Example 1 sweep
// stores: a tightened proof per Table2Full point plus the infeasible
// final cap.
var example1Chain = len(expts.Table2Full) + 1

// sweepThrough runs one combinatorial sweep with the view plugged in as
// its frontier source (nil view = cold sweep) and finishes it against
// the cache.
func sweepThrough(t testing.TB, g *taskgraph.Graph, pool *arch.Instances, topo arch.Topology,
	v *FrontierView, tel *telemetry.Collector, startCap float64) []pareto.Point {
	t.Helper()
	fam := &race.Family{G: g, Pool: pool, Topo: topo, Rungs: budget.Ladder{budget.EngineCombinatorial},
		Frontier: true, Exact: exact.Options{TimeLimit: 2 * time.Minute}, Telemetry: tel}
	opts := pareto.Options{StartCap: startCap}
	if v != nil {
		opts.Source = v
	}
	pts, err := pareto.Sweep(context.Background(), fam, opts)
	if err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	if v != nil {
		v.Finish(pts, err)
	}
	return pts
}

// solverWork sums every counter that a solver invocation would bump, so
// zero means the sweep was answered entirely from the cache.
func solverWork(tel *telemetry.Collector) int64 {
	return tel.Get(telemetry.CtrMapNodes) + tel.Get(telemetry.CtrSchedNodes) +
		tel.Get(telemetry.CtrNodesExpanded)
}

func samePoints(t *testing.T, want, got []pareto.Point) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("frontier has %d points, want %d", len(got), len(want))
	}
	for i := range want {
		if want[i].Cost() != got[i].Cost() || want[i].Perf() != got[i].Perf() {
			t.Errorf("point %d: (%g,%g), want (%g,%g)", i,
				got[i].Cost(), got[i].Perf(), want[i].Cost(), want[i].Perf())
		}
		if want[i].Status != got[i].Status || want[i].Gap != got[i].Gap {
			t.Errorf("point %d: status/gap (%v,%v) diverged from cold sweep (%v,%v)",
				i, got[i].Status, got[i].Gap, want[i].Status, want[i].Gap)
		}
	}
}

// TestFrontierHitRoundTrip: a cold sweep stores its chain; an
// identical repeat sweep and a renamed/reordered one must both be served
// bit-identically with zero solver invocations.
func TestFrontierHitRoundTrip(t *testing.T) {
	g, lib := expts.Example1()
	pool := expts.Example1Pool(lib)
	p2p := arch.PointToPoint{}
	tel := telemetry.New(nil)
	c := newCache(t, Options{Telemetry: tel})
	p := mustProbe(t, Request{Graph: g, Pool: pool, Topo: p2p})

	cold := sweepThrough(t, g, pool, p2p, c.View(p, 1, 0), tel, 0)
	if len(cold) != len(expts.Table2Full) {
		t.Fatalf("cold sweep found %d points, want %d", len(cold), len(expts.Table2Full))
	}
	if got := tel.Get(telemetry.CtrFrontierMisses); got != 1 {
		t.Fatalf("frontier_misses = %d, want 1", got)
	}
	if got := tel.Get(telemetry.CtrFrontierStores); got != 1 {
		t.Fatalf("frontier_stores = %d, want 1", got)
	}
	if c.Len() != example1Chain {
		t.Fatalf("cache holds %d entries, want %d (one chain)", c.Len(), example1Chain)
	}

	tel2 := telemetry.New(nil)
	c.tel = tel2
	warm := sweepThrough(t, g, pool, p2p, c.View(p, 1, 0), tel2, 0)
	samePoints(t, cold, warm)
	if w := solverWork(tel2); w != 0 {
		t.Fatalf("repeat sweep did solver work (%d nodes), want 0", w)
	}
	if got := tel2.Get(telemetry.CtrFrontierHits); got != 1 {
		t.Fatalf("frontier_hits = %d, want 1", got)
	}

	// A renamed/reordered presentation of the same problem must hit the
	// same chain, with every served design remapped onto its own
	// graph and pool.
	pg, plib := permute(g, lib, []int{3, 1, 0, 2}, []int{2, 0, 1}, []int{2, 0, 1})
	ppool := arch.InstancePool(plib, permutedCounts([]int{2, 2, 2}, []int{2, 0, 1}))
	pp := mustProbe(t, Request{Graph: pg, Pool: ppool, Topo: p2p})
	tel3 := telemetry.New(nil)
	c.tel = tel3
	perm := sweepThrough(t, pg, ppool, p2p, c.View(pp, 1, 0), tel3, 0)
	samePoints(t, cold, perm)
	if w := solverWork(tel3); w != 0 {
		t.Fatalf("permuted sweep did solver work (%d nodes), want 0", w)
	}
	for i, pt := range perm {
		if pt.Design.Graph != pg || pt.Design.Pool != ppool {
			t.Fatalf("point %d references the wrong problem objects", i)
		}
	}
}

// TestFrontierDeltaResolve: a chain stored from a capped sweep only
// partially covers the full range; the full sweep must solve exactly the
// uncovered caps (pinned by the delta-points counter) and still return
// the cold frontier bit-identically — after which the spliced chain
// serves the full range without a solver.
func TestFrontierDeltaResolve(t *testing.T) {
	g, lib := expts.Example1()
	pool := expts.Example1Pool(lib)
	p2p := arch.PointToPoint{}
	full := sweepThrough(t, g, pool, p2p, nil, nil, 0)
	if len(full) < 2 {
		t.Fatalf("workload too small for a partial-coverage split (%d points)", len(full))
	}
	// Start the stored sweep one step below the first point's cost: its
	// chain is exactly the full chain minus the head point.
	mid := full[0].Cost() - 1

	tel := telemetry.New(nil)
	c := newCache(t, Options{Telemetry: tel})
	p := mustProbe(t, Request{Graph: g, Pool: pool, Topo: p2p})
	part := sweepThrough(t, g, pool, p2p, c.View(p, 1, mid), tel, mid)
	samePoints(t, full[1:], part)

	tel2 := telemetry.New(nil)
	c.tel = tel2
	merged := sweepThrough(t, g, pool, p2p, c.View(p, 1, 0), tel2, 0)
	samePoints(t, full, merged)
	if got := tel2.Get(telemetry.CtrFrontierPartialHits); got != 1 {
		t.Fatalf("frontier_partial_hits = %d, want 1", got)
	}
	if got := tel2.Get(telemetry.CtrFrontierDeltaPoints); got != 1 {
		t.Fatalf("frontier_delta_points = %d, want 1 (only the head point was uncovered)", got)
	}
	if w := solverWork(tel2); w == 0 {
		t.Fatal("delta sweep reported no solver work but had an uncovered cap")
	}

	// The delta sweep stored the head point: the full range now serves
	// without any solver work at all.
	tel3 := telemetry.New(nil)
	c.tel = tel3
	again := sweepThrough(t, g, pool, p2p, c.View(p, 1, 0), tel3, 0)
	samePoints(t, full, again)
	if w := solverWork(tel3); w != 0 {
		t.Fatalf("post-splice sweep did solver work (%d nodes), want 0", w)
	}
	if got := tel3.Get(telemetry.CtrFrontierHits); got != 1 {
		t.Fatalf("frontier_hits = %d, want 1", got)
	}
}

// TestFrontierPersistRoundTrip: a stored chain (whose head point sits
// at the non-finite +Inf cap of the uncapped start) survives a restart
// through the JSONL spill and serves a repeat sweep with zero solver
// invocations.
func TestFrontierPersistRoundTrip(t *testing.T) {
	g, lib := expts.Example1()
	pool := expts.Example1Pool(lib)
	p2p := arch.PointToPoint{}
	path := filepath.Join(t.TempDir(), "frontiers.jsonl")

	c1 := newCache(t, Options{PersistPath: path})
	p := mustProbe(t, Request{Graph: g, Pool: pool, Topo: p2p})
	cold := sweepThrough(t, g, pool, p2p, c1.View(p, 1, 0), nil, 0)
	if err := c1.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	tel := telemetry.New(nil)
	c2 := newCache(t, Options{PersistPath: path, Telemetry: tel})
	restored, skipped := c2.Loaded()
	if restored != example1Chain || skipped != 0 {
		t.Fatalf("Loaded = (%d, %d), want (%d, 0)", restored, skipped, example1Chain)
	}
	warm := sweepThrough(t, g, pool, p2p, c2.View(p, 1, 0), tel, 0)
	samePoints(t, cold, warm)
	if w := solverWork(tel); w != 0 {
		t.Fatalf("restored sweep did solver work (%d nodes), want 0", w)
	}
	if got := tel.Get(telemetry.CtrFrontierHits); got != 1 {
		t.Fatalf("frontier_hits = %d, want 1", got)
	}
}

// TestFrontierTerminalProof: a sweep whose start cap is below the
// cheapest feasible design stores a pure terminal proof (an Infeasible
// entry at the start cap, no points); a
// repeat sweep is answered "empty, done" without a solver, and the proof
// survives a restart.
func TestFrontierTerminalProof(t *testing.T) {
	g, lib := expts.Example1()
	pool := expts.Example1Pool(lib)
	p2p := arch.PointToPoint{}
	full := sweepThrough(t, g, pool, p2p, nil, nil, 0)
	below := full[len(full)-1].Cost() - 1 // below the cheapest feasible cost
	if below <= 0 {
		t.Skip("cheapest design costs <= 1; no infeasible positive cap exists")
	}
	path := filepath.Join(t.TempDir(), "frontiers.jsonl")

	tel := telemetry.New(nil)
	c := newCache(t, Options{Telemetry: tel, PersistPath: path})
	p := mustProbe(t, Request{Graph: g, Pool: pool, Topo: p2p})
	if pts := sweepThrough(t, g, pool, p2p, c.View(p, 1, below), tel, below); len(pts) != 0 {
		t.Fatalf("sweep below min cost returned %d points, want 0", len(pts))
	}
	if c.Len() != 1 {
		t.Fatalf("terminal proof was not stored (len %d)", c.Len())
	}

	tel2 := telemetry.New(nil)
	c.tel = tel2
	if pts := sweepThrough(t, g, pool, p2p, c.View(p, 1, below), tel2, below); len(pts) != 0 {
		t.Fatalf("repeat sweep returned %d points, want 0", len(pts))
	}
	if w := solverWork(tel2); w != 0 {
		t.Fatalf("repeat infeasible sweep did solver work (%d nodes), want 0", w)
	}
	if got := tel2.Get(telemetry.CtrFrontierHits); got != 1 {
		t.Fatalf("frontier_hits = %d, want 1", got)
	}
	c.Close()

	c2 := newCache(t, Options{PersistPath: path})
	if restored, _ := c2.Loaded(); restored != 1 {
		t.Fatalf("terminal proof did not survive restart (restored %d)", restored)
	}
}
