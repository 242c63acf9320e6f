package sos

import (
	"context"

	icache "sos/internal/cache"
	"sos/internal/pareto"
	"sos/internal/race"
)

// CacheOptions configures NewCache.
type CacheOptions struct {
	// Capacity bounds the number of cached proofs (<= 0 selects 4096).
	Capacity int
	// PersistPath, when non-empty, appends every stored proof to a JSONL
	// spill file and warm-loads existing lines at construction, so a
	// restarted process starts with its proofs back.
	PersistPath string
	// Telemetry receives the cache_* and frontier_* counters and the
	// EvCache/EvFrontier trace events.
	Telemetry *Telemetry
}

// Cache is a cross-request result cache: a sharded LRU of proved results
// keyed by a canonical content hash of the problem, with single-flight
// deduplication of concurrent identical requests. Attach one to
// Spec.Cache (or server.Config.Cache) and share it across requests; all
// methods are safe for concurrent use.
//
// Only proofs (StatusOptimal, StatusInfeasible) are ever stored or
// served, and a proof at one cost cap also answers nearby caps via the
// cover-down rule — see DESIGN.md §13 for the soundness argument.
// Frontier sweeps store their points as the same proofs (DESIGN.md §15).
type Cache struct {
	c *icache.Cache
}

// NewCache builds a result cache.
func NewCache(opts CacheOptions) (*Cache, error) {
	c, err := icache.New(icache.Options{
		Capacity:    opts.Capacity,
		PersistPath: opts.PersistPath,
		Telemetry:   opts.Telemetry,
	})
	if err != nil {
		return nil, err
	}
	return &Cache{c: c}, nil
}

// Close flushes and closes the persistent spill, if any.
func (c *Cache) Close() error { return c.c.Close() }

// Len reports the number of cached proofs, swept frontier points
// included.
func (c *Cache) Len() int { return c.c.Len() }

// Loaded reports how many persisted proofs were restored (and how many
// spill lines were skipped as corrupt, stale, or failing their
// re-check) at construction.
func (c *Cache) Loaded() (restored, skipped int) { return c.c.Loaded() }

// probe canonicalizes a defaulted spec into a cache probe.
func (c *Cache) probe(sp Spec) (*icache.Probe, error) {
	obj := icache.MinMakespan
	if sp.Objective == MinCost {
		obj = icache.MinCost
	}
	return icache.Prepare(icache.Request{
		Graph:       sp.Graph,
		Pool:        sp.Pool,
		Topo:        sp.Topology,
		Objective:   obj,
		CostCap:     sp.CostCap,
		Deadline:    sp.Deadline,
		Memory:      sp.Memory,
		NoOverlapIO: sp.NoOverlapIO,
	})
}

// synthesize is the cached solve path. ok=false means the spec turned
// out to be uncacheable and the caller should solve directly.
func (c *Cache) synthesize(ctx context.Context, sp Spec) (*Result, error, bool) {
	p, err := c.probe(sp)
	if err != nil {
		return nil, nil, false
	}
	if hit := c.c.Lookup(p); hit != nil {
		return resultFromHit(sp, hit), nil, true
	}

	// Miss: solve, deduplicating concurrent identical requests. The
	// single-flight leader solves under its own context and stores any
	// proof before followers wake.
	var res *Result
	var solveErr error
	shared, _ := c.c.Do(ctx, p.Key(), func() error {
		res, solveErr = c.solveStore(ctx, sp, p)
		return solveErr
	})
	if !shared {
		return res, solveErr, true
	}

	// Follower: the leader finished (or our wait was canceled). Its
	// result references the leader's problem objects, not ours, so
	// re-probe the cache — Lookup remaps the stored proof into our
	// frame. If the leader produced no proof (failed, canceled, budget
	// ran out), fall back to our own solve; a canceled follower context
	// surfaces through the engines' normal cancellation paths.
	if hit := c.c.Lookup(p); hit != nil {
		return resultFromHit(sp, hit), nil, true
	}
	r, err := c.solveStore(ctx, sp, p)
	return r, err, true
}

// solveStore solves with cached near-miss warm starts injected and
// stores the result back when it is a proof.
func (c *Cache) solveStore(ctx context.Context, sp Spec, p *icache.Probe) (*Result, error) {
	res, err := solvePoint(ctx, sp, newFamily(sp), c.c.WarmStarts(p, race.MaxWarm))
	if err == nil {
		c.storeProof(p, res)
	}
	return res, err
}

// resultFromHit converts a served cache hit into a Result. The hit's
// design is already remapped onto this spec's graph/pool and re-validated
// by the cache layer.
func resultFromHit(sp Spec, hit *icache.Hit) *Result {
	res := &Result{Engine: sp.Engine, Cached: true}
	if hit.Infeasible {
		res.Status = StatusInfeasible
		res.Infeasible = true
		return res
	}
	res.Design = hit.Design
	res.Status = StatusOptimal
	res.Optimal = true
	res.Bound = hit.Bound
	return res
}

// frontierStep is the cost-cap decrement of Frontier sweeps.
const frontierStep = pareto.CostStep

// frontierProbe canonicalizes a defaulted spec for a sweep. Frontiers
// are always chains of min-makespan proofs, so the probe is keyed under
// MinMakespan regardless of the spec's point objective.
func (c *Cache) frontierProbe(sp Spec) (*icache.Probe, error) {
	return icache.Prepare(icache.Request{
		Graph:       sp.Graph,
		Pool:        sp.Pool,
		Topo:        sp.Topology,
		Objective:   icache.MinMakespan,
		CostCap:     sp.CostCap,
		Memory:      sp.Memory,
		NoOverlapIO: sp.NoOverlapIO,
	})
}

// frontier is the cached sweep path behind Frontier. ok=false means the
// spec would not canonicalize and the caller should sweep directly.
//
// The sweep always runs — the cache plugs in as its FrontierSource, so a
// fully covered range costs one serve pass and zero solver calls, while
// a partially covered one solves only the uncovered caps with cached
// neighbors as warm incumbents. Finish classifies the outcome and stores
// any newly certified points back as proofs.
func (c *Cache) frontier(ctx context.Context, sp Spec) ([]FrontierPoint, error, bool) {
	p, err := c.frontierProbe(sp)
	if err != nil {
		return nil, nil, false
	}
	v := c.c.View(p, frontierStep, sp.CostCap)
	var out []FrontierPoint
	var sweepErr error
	run := func() error {
		pts, err := sweep(ctx, sp, v)
		v.Finish(pts, err)
		out, sweepErr = frontierPoints(pts), err
		return err
	}
	if shared, _ := v.Do(ctx, run); shared {
		// Follower: the leader finished (or our wait was canceled). Its
		// points live in its own frame, so re-sweep — the cache now holds
		// the chain and serves it remapped without solver calls. If the
		// leader failed, or our own context is done, this is an ordinary
		// sweep with an ordinary sweep's typed errors.
		run()
	}
	return out, sweepErr, true
}
