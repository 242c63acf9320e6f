package cache

import (
	"context"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"sos/internal/arch"
	"sos/internal/budget"
	"sos/internal/exact"
	"sos/internal/expts"
	"sos/internal/telemetry"
)

// prove runs the exact engine and stores the proof into c under the
// probe, failing the test if the solve is not a proof.
func prove(t testing.TB, c *Cache, p *Probe) *exact.Result {
	t.Helper()
	res, err := exact.Synthesize(context.Background(), p.Req.Graph, p.Req.Pool, p.Req.Topo, exact.Options{
		Objective: exact.Objective(p.Req.Objective),
		CostCap:   p.Req.CostCap,
		Deadline:  p.Req.Deadline,
	})
	if err != nil {
		t.Fatalf("exact: %v", err)
	}
	if !res.Status.Proven() {
		t.Fatalf("exact did not prove: %v", res.Status)
	}
	ok := c.Store(p, StoreResult{
		Optimal:    res.Status == budget.StatusOptimal,
		Infeasible: res.Status == budget.StatusInfeasible,
		Design:     res.Design,
		Bound:      res.Bound,
		Nodes:      int64(res.Nodes),
	})
	if !ok {
		t.Fatalf("Store rejected a proof")
	}
	return res
}

func newCache(t testing.TB, opts Options) *Cache {
	t.Helper()
	c, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestExactHitRoundTrip: store a proof, look it up from an identical and
// from a renamed/reordered spec; both must be served without a solver,
// and the remapped design must validate against the requester's graph.
func TestExactHitRoundTrip(t *testing.T) {
	g, lib := expts.Example1()
	pool := expts.Example1Pool(lib)
	tel := telemetry.New(nil)
	c := newCache(t, Options{Telemetry: tel})

	req := Request{Graph: g, Pool: pool, Topo: arch.PointToPoint{}, CostCap: 7}
	p := mustProbe(t, req)
	res := prove(t, c, p)

	hit := c.Lookup(p)
	if hit == nil || !hit.Exact {
		t.Fatalf("identical probe missed")
	}
	if hit.Design.Makespan != res.Design.Makespan || hit.Design.Cost != res.Design.Cost {
		t.Fatalf("hit returned a different design: %v vs %v", hit.Design, res.Design)
	}

	// Renamed nodes, reordered arcs and types: must still hit, and the
	// served design must reference the requester's own graph and pool.
	nodeOrder := []int{3, 1, 0, 2}
	pg, plib := permute(g, lib, nodeOrder, []int{2, 0, 1}, []int{2, 0, 1})
	ppool := arch.InstancePool(plib, permutedCounts([]int{2, 2, 2}, []int{2, 0, 1}))
	pp := mustProbe(t, Request{Graph: pg, Pool: ppool, Topo: arch.PointToPoint{}, CostCap: 7})
	if pp.Key() != p.Key() {
		t.Fatalf("permuted key diverged (invariance bug)")
	}
	hit = c.Lookup(pp)
	if hit == nil {
		t.Fatalf("permuted probe missed")
	}
	if hit.Design.Graph != pg || hit.Design.Pool != ppool {
		t.Fatalf("served design references the wrong problem objects")
	}
	if hit.Design.Makespan != res.Design.Makespan || hit.Design.Cost != res.Design.Cost {
		t.Fatalf("remapped design changed objective: makespan %v cost %v, want %v / %v",
			hit.Design.Makespan, hit.Design.Cost, res.Design.Makespan, res.Design.Cost)
	}
	if got := tel.Get(telemetry.CtrCacheHits); got != 2 {
		t.Fatalf("cache_hits = %d, want 2", got)
	}
}

// TestCoverDown: a proof at cap C with design cost c serves every cap in
// [c, C]; outside the interval it must miss. An infeasible proof at cap
// C serves every cap <= C.
func TestCoverDown(t *testing.T) {
	g, lib := expts.Example1()
	pool := expts.Example1Pool(lib)
	c := newCache(t, Options{})
	p2p := arch.PointToPoint{}

	// Cap 13.9 → the paper's {p1,p2,p3} design: cost 13, makespan 3.
	p14 := mustProbe(t, Request{Graph: g, Pool: pool, Topo: p2p, CostCap: 13.9})
	res := prove(t, c, p14)
	if res.Design.Cost != 13 {
		t.Fatalf("unexpected design cost %v (want 13)", res.Design.Cost)
	}

	// Caps inside [13, 13.9] are covered; 13 exactly is covered.
	for _, cap := range []float64{13.9, 13.5, 13} {
		hit := c.Lookup(mustProbe(t, Request{Graph: g, Pool: pool, Topo: p2p, CostCap: cap}))
		if hit == nil {
			t.Fatalf("cap %v: expected cover-down hit", cap)
		}
		if hit.Design.Cost != 13 || hit.Bound != res.Bound {
			t.Fatalf("cap %v: wrong covered result", cap)
		}
	}
	// Cap 12.9 < design cost: the cached optimum no longer fits; must miss.
	if hit := c.Lookup(mustProbe(t, Request{Graph: g, Pool: pool, Topo: p2p, CostCap: 12.9})); hit != nil {
		t.Fatalf("cap below the design cost must miss, got %+v", hit)
	}
	// Cap 14 > proved cap: a better design exists there ({14, 2.5});
	// serving the cost-13 proof would be wrong, so it must miss.
	if hit := c.Lookup(mustProbe(t, Request{Graph: g, Pool: pool, Topo: p2p, CostCap: 14})); hit != nil {
		t.Fatalf("cap above the proved cap must miss")
	}
	// The cover rule holds on an exact key too: a cost-13 design filed
	// under cap 5 is no answer there.
	p5 := mustProbe(t, Request{Graph: g, Pool: pool, Topo: p2p, CostCap: 5})
	c.Store(p5, StoreResult{Optimal: true, Design: res.Design, Bound: res.Bound})
	if hit := c.Lookup(p5); hit != nil {
		t.Fatalf("exact key served a design over its own cap: cost %v", hit.Design.Cost)
	}

	// Infeasible cover: cap 3 is below the cheapest capable design (4).
	p3 := mustProbe(t, Request{Graph: g, Pool: pool, Topo: p2p, CostCap: 3})
	res = prove(t, c, p3)
	if res.Status != budget.StatusInfeasible {
		t.Fatalf("cap 3 should be infeasible, got %v", res.Status)
	}
	hit := c.Lookup(mustProbe(t, Request{Graph: g, Pool: pool, Topo: p2p, CostCap: 2}))
	if hit == nil || !hit.Infeasible {
		t.Fatalf("tighter cap must inherit the infeasibility proof")
	}
	if hit := c.Lookup(mustProbe(t, Request{Graph: g, Pool: pool, Topo: p2p, CostCap: 3.5})); hit != nil {
		t.Fatalf("looser cap must not inherit infeasibility")
	}
}

// TestCoverDownMinCost mirrors cover-down on the MinCost axis: optimal
// at deadline D with makespan m covers deadlines in [m, D].
func TestCoverDownMinCost(t *testing.T) {
	g, lib := expts.Example1()
	pool := expts.Example1Pool(lib)
	c := newCache(t, Options{})
	p2p := arch.PointToPoint{}

	// Deadline 10 → the cost-5 design (its schedule runs in 7). The proof
	// covers every deadline in [makespan, 10]. Note the stored design's
	// makespan is whatever schedule the MinCost solve found, not the
	// fastest one — the cover interval honestly reflects that.
	pD := mustProbe(t, Request{Graph: g, Pool: pool, Topo: p2p, Objective: MinCost, Deadline: 10})
	res := prove(t, c, pD)
	m := res.Design.Makespan
	if res.Design.Cost != 5 || m > 10 {
		t.Fatalf("deadline 10: got cost %v makespan %v", res.Design.Cost, m)
	}
	hit := c.Lookup(mustProbe(t, Request{Graph: g, Pool: pool, Topo: p2p, Objective: MinCost, Deadline: (m + 10) / 2}))
	if hit == nil || hit.Design.Cost != res.Design.Cost {
		t.Fatalf("deadline inside [makespan, proved] must be covered")
	}
	if hit := c.Lookup(mustProbe(t, Request{Graph: g, Pool: pool, Topo: p2p, Objective: MinCost, Deadline: m - 0.1})); hit != nil {
		t.Fatalf("deadline below the design's makespan must miss")
	}
	// A looser deadline than proved must miss (a cheaper design may fit).
	if hit := c.Lookup(mustProbe(t, Request{Graph: g, Pool: pool, Topo: p2p, Objective: MinCost, Deadline: 20})); hit != nil {
		t.Fatalf("deadline above the proved deadline must miss")
	}
}

// TestStoreRejectsNonProofs pins satellite 4's core rule at the cache
// layer: results that are not proofs are never stored, so no later
// lookup can serve them where a proof was requested.
func TestStoreRejectsNonProofs(t *testing.T) {
	g, lib := expts.Example1()
	pool := expts.Example1Pool(lib)
	c := newCache(t, Options{})
	p := mustProbe(t, Request{Graph: g, Pool: pool, Topo: arch.PointToPoint{}, CostCap: 7})

	cases := []StoreResult{
		{},                      // budget-exhausted: neither optimal nor infeasible
		{Optimal: true},         // claims optimal without a design
		{Design: nil, Bound: 4}, // feasible-but-unproven incumbent shape
	}
	for i, sr := range cases {
		if c.Store(p, sr) {
			t.Fatalf("case %d: Store accepted a non-proof", i)
		}
	}
	if c.Len() != 0 {
		t.Fatalf("non-proofs leaked into the cache")
	}
	if hit := c.Lookup(p); hit != nil {
		t.Fatalf("lookup served a rejected entry")
	}
}

// TestWarmStarts: same-family optimal designs feasible under the request
// come back as remapped warm-start candidates, best objective first.
func TestWarmStarts(t *testing.T) {
	g, lib := expts.Example1()
	pool := expts.Example1Pool(lib)
	c := newCache(t, Options{})
	p2p := arch.PointToPoint{}

	prove(t, c, mustProbe(t, Request{Graph: g, Pool: pool, Topo: p2p, CostCap: 5}))  // cost 5, makespan 7
	prove(t, c, mustProbe(t, Request{Graph: g, Pool: pool, Topo: p2p, CostCap: 13})) // cost 13, makespan 3

	// Cap 20 is looser than anything proved: no hit, but both designs are
	// feasible warm starts, fastest first.
	p20 := mustProbe(t, Request{Graph: g, Pool: pool, Topo: p2p, CostCap: 20})
	if hit := c.Lookup(p20); hit != nil {
		t.Fatalf("cap 20 must miss (no proof covers it)")
	}
	ws := c.WarmStarts(p20, 4)
	if len(ws) != 2 {
		t.Fatalf("want 2 warm starts, got %d", len(ws))
	}
	if ws[0].Makespan != 3 || ws[1].Makespan != 7 {
		t.Fatalf("warm starts out of order: %v, %v", ws[0].Makespan, ws[1].Makespan)
	}
	// Cap 6 admits only the cost-5 design.
	ws = c.WarmStarts(mustProbe(t, Request{Graph: g, Pool: pool, Topo: p2p, CostCap: 6}), 4)
	if len(ws) != 1 || ws[0].Cost != 5 {
		t.Fatalf("cap 6 warm starts: %v", ws)
	}
}

// TestLRUEviction: overflowing the per-shard capacity evicts the least
// recently used proof and unindexes its family.
func TestLRUEviction(t *testing.T) {
	tel := telemetry.New(nil)
	c := newCache(t, Options{Capacity: 2, Shards: 1, Telemetry: tel})
	g, lib := expts.Example1()
	pool := expts.Example1Pool(lib)
	p2p := arch.PointToPoint{}

	caps := []float64{5, 7, 13}
	var probes []*Probe
	for _, cp := range caps {
		p := mustProbe(t, Request{Graph: g, Pool: pool, Topo: p2p, CostCap: cp})
		prove(t, c, p)
		probes = append(probes, p)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	if tel.Get(telemetry.CtrCacheEvictions) != 1 {
		t.Fatalf("evictions = %d, want 1", tel.Get(telemetry.CtrCacheEvictions))
	}
	if hit := c.Lookup(probes[0]); hit != nil {
		t.Fatalf("evicted entry still served")
	}
	for _, p := range probes[1:] {
		if hit := c.Lookup(p); hit == nil {
			t.Fatalf("resident entry evicted out of order")
		}
	}
}

// TestPersistRoundTrip: proofs spilled to JSONL are restored on restart
// — including infeasibility proofs — and corrupt lines are skipped.
func TestPersistRoundTrip(t *testing.T) {
	g, lib := expts.Example1()
	pool := expts.Example1Pool(lib)
	p2p := arch.PointToPoint{}
	path := filepath.Join(t.TempDir(), "spill.jsonl")

	c1 := newCache(t, Options{PersistPath: path})
	p7 := mustProbe(t, Request{Graph: g, Pool: pool, Topo: p2p, CostCap: 7})
	res := prove(t, c1, p7)
	p3 := mustProbe(t, Request{Graph: g, Pool: pool, Topo: p2p, CostCap: 3})
	prove(t, c1, p3)
	if err := c1.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	c2 := newCache(t, Options{PersistPath: path})
	if n, sk := c2.Loaded(); n != 2 || sk != 0 {
		t.Fatalf("Loaded = (%d, %d), want (2, 0)", n, sk)
	}
	hit := c2.Lookup(p7)
	if hit == nil || hit.Design == nil || hit.Design.Makespan != res.Design.Makespan {
		t.Fatalf("restored optimal proof not served: %+v", hit)
	}
	if hit.Design.Graph != g || hit.Design.Pool != pool {
		t.Fatalf("restored design must be remapped onto the requester's objects")
	}
	if err := hit.Design.Validate(nil); err != nil {
		t.Fatalf("restored design invalid: %v", err)
	}
	hit = c2.Lookup(p3)
	if hit == nil || !hit.Infeasible {
		t.Fatalf("restored infeasibility proof not served")
	}
	c2.Close()

	// Corrupt the file with junk lines: restart restores what it can.
	appendLine(t, path, "{malformed")
	appendLine(t, path, `{"v":99,"status":"optimal"}`)
	c3 := newCache(t, Options{PersistPath: path})
	if n, sk := c3.Loaded(); n != 2 || sk != 2 {
		t.Fatalf("Loaded = (%d, %d), want (2, 2)", n, sk)
	}
	if hit := c3.Lookup(p7); hit == nil {
		t.Fatalf("valid lines lost after corruption")
	}
}

// TestConcurrentStorm hammers one cache with identical and near-identical
// requests from many goroutines (run under -race).
func TestConcurrentStorm(t *testing.T) {
	g, lib := expts.Example1()
	pool := expts.Example1Pool(lib)
	c := newCache(t, Options{Capacity: 8, Shards: 2})
	p2p := arch.PointToPoint{}

	seed := mustProbe(t, Request{Graph: g, Pool: pool, Topo: p2p, CostCap: 7})
	prove(t, c, seed)

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 200; i++ {
				cp := []float64{7, 6.5, 13, 5, 3, 20}[rng.Intn(6)]
				p, err := Prepare(Request{Graph: g, Pool: pool, Topo: p2p, CostCap: cp})
				if err != nil {
					t.Error(err)
					return
				}
				if hit := c.Lookup(p); hit != nil && !hit.Infeasible {
					if hit.Design.Cost > cp {
						t.Errorf("served design violates cap %v: cost %v", cp, hit.Design.Cost)
						return
					}
				}
				c.WarmStarts(p, 2)
				if rng.Intn(4) == 0 {
					c.Store(p, StoreResult{}) // non-proof, must be rejected
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Len() > 8 {
		t.Fatalf("capacity exceeded: %d", c.Len())
	}
}

func appendLine(t *testing.T, path, line string) {
	t.Helper()
	sp, err := openSpill(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sp.f.Seek(0, 2); err != nil {
		t.Fatal(err)
	}
	sp.w.WriteString(line + "\n")
	if err := sp.close(); err != nil {
		t.Fatal(err)
	}
}

// TestUncacheableTopology: an unknown topology type is reported as
// uncacheable rather than silently mis-keyed.
func TestUncacheableTopology(t *testing.T) {
	g, lib := expts.Example1()
	pool := expts.Example1Pool(lib)
	if _, err := Prepare(Request{Graph: g, Pool: pool, Topo: weirdTopo{}, CostCap: 7}); err == nil {
		t.Fatalf("unknown topology must be uncacheable")
	}
}

type weirdTopo struct{ arch.PointToPoint }

func (weirdTopo) Name() string { return "weird" }
