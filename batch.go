package sos

import (
	"context"
	"fmt"

	icache "sos/internal/cache"
	"sos/internal/model"
)

// BatchResult is the outcome of one spec of a SolveBatch call.
type BatchResult struct {
	Result *Result
	Err    error
}

// batchItem is one defaulted, cache-eligible batch member.
type batchItem struct {
	idx   int
	sp    Spec
	probe *icache.Probe
}

// batchGroup keys items that can share one MILP model template: same
// problem objects and model-shaping flags, differing only in cap or
// deadline. (Isomorphic-but-distinct specs are not grouped — they still
// benefit through canonical-key cache hits, which remap across objects.)
type batchGroup struct {
	graph       *Graph
	pool        *Pool
	topoName    string
	objective   Objective
	engine      Engine
	memory      bool
	noOverlapIO bool
}

// SolveBatch solves a set of related synthesis problems together,
// exploiting their overlap instead of solving each from scratch:
//
//   - Specs are deduplicated and cover-down-matched through a result
//     cache (c, or an ephemeral batch-local cache when c is nil), so
//     identical and cap-covered variants are proved once and fanned out.
//   - Variants of one problem that differ only in cost cap / deadline
//     and use EngineMILP share a single model template: each variant is
//     an O(1) SetCostCap/SetDeadline clone of the template instead of a
//     full model build, and every proved design seeds the later, tighter
//     variants' branch-and-bound as an untrusted incumbent.
//   - Variants are solved loosest bound first, which maximizes what the
//     cover-down rule can serve to the tighter ones.
//
// Results are positionally aligned with specs; per-spec failures land in
// the corresponding BatchResult.Err without failing the batch. The
// passed cache keeps the batch's proofs for future calls; pass nil for a
// self-contained batch.
func SolveBatch(ctx context.Context, specs []Spec, c *Cache) []BatchResult {
	out := make([]BatchResult, len(specs))
	if c == nil {
		var err error
		c, err = NewCache(CacheOptions{})
		if err != nil {
			for i := range out {
				out[i].Err = err
			}
			return out
		}
		defer c.Close()
	}

	groups := make(map[batchGroup][]*batchItem)
	var order []batchGroup
	for i := range specs {
		if ctx.Err() != nil {
			out[i].Err = ctx.Err()
			continue
		}
		sp, err := specs[i].withDefaults()
		if err != nil {
			out[i].Err = err
			continue
		}
		sp.Cache = c
		var probe *icache.Probe
		if cacheEligible(sp) {
			probe, _ = c.probe(sp) // nil probe = uncacheable, solve solo
		}
		if probe == nil {
			out[i].Result, out[i].Err = Synthesize(ctx, specs[i])
			continue
		}
		it := &batchItem{idx: i, sp: sp, probe: probe}
		gk := batchGroup{
			graph: sp.Graph, pool: sp.Pool, topoName: sp.Topology.Name(),
			objective: sp.Objective, engine: sp.Engine,
			memory: sp.Memory, noOverlapIO: sp.NoOverlapIO,
		}
		if _, seen := groups[gk]; !seen {
			order = append(order, gk)
		}
		groups[gk] = append(groups[gk], it)
	}

	for _, gk := range order {
		items := groups[gk]
		// Loosest bound first: under MinMakespan higher caps first, under
		// MinCost later deadlines first (uncapped = +Inf leads). Ties keep
		// submission order, so exact duplicates trail their original and
		// hit its freshly stored proof.
		sortByLimitDesc(items)
		if gk.engine == EngineMILP && len(distinctKeys(items)) > 1 {
			solveGroupMILP(ctx, c, items, out)
			continue
		}
		for _, it := range items {
			r, err := c.synthesizeItem(ctx, it.sp, it.probe)
			out[it.idx].Result, out[it.idx].Err = r, err
		}
	}
	return out
}

// sortByLimitDesc orders items loosest-bound-first (stable).
func sortByLimitDesc(items []*batchItem) {
	for i := 1; i < len(items); i++ {
		for j := i; j > 0 && items[j].probe.Limit() > items[j-1].probe.Limit(); j-- {
			items[j], items[j-1] = items[j-1], items[j]
		}
	}
}

func distinctKeys(items []*batchItem) map[icache.Key]bool {
	m := make(map[icache.Key]bool, len(items))
	for _, it := range items {
		m[it.probe.Key()] = true
	}
	return m
}

// solveGroupMILP solves one template group: a single model build, one
// SetCostCap/SetDeadline clone per distinct variant, cache cover-down
// between variants, and an incumbent pool accumulated across the group
// (proved designs of looser variants are feasible candidates for tighter
// ones; the solver feasibility-checks each before use).
func solveGroupMILP(ctx context.Context, c *Cache, items []*batchItem, out []BatchResult) {
	first := items[0].sp
	mo := model.Options{Memory: first.Memory, NoOverlapIO: first.NoOverlapIO}
	if first.Objective == MinCost {
		mo.Objective = model.MinCost
		mo.Deadline = 1 // placeholder; SetDeadline retargets per variant
	} else {
		mo.CostCap = 1 // placeholder; SetCostCap retargets per variant
	}
	tpl, err := model.Build(first.Graph, first.Pool, first.Topology, mo)
	if err != nil {
		for _, it := range items {
			out[it.idx].Err = err
		}
		return
	}

	var incPool [][]float64
	addIncumbent := func(r *Result) {
		if r != nil && r.Design != nil && len(incPool) < maxWarmStarts*2 {
			if v, err := tpl.IncumbentVector(r.Design); err == nil {
				incPool = append(incPool, v)
			}
		}
	}
	// Cached near-misses for the whole family seed the first solves too.
	for _, d := range c.warmDesignsFor(items[0].probe, maxWarmStarts) {
		if v, err := tpl.IncumbentVector(d); err == nil {
			incPool = append(incPool, v)
		}
	}

	for _, it := range items {
		if ctx.Err() != nil {
			out[it.idx].Err = ctx.Err()
			continue
		}
		if hit := c.c.Lookup(it.probe); hit != nil {
			out[it.idx].Result = resultFromHit(it.sp, hit)
			continue
		}
		r, err := solveVariant(ctx, it.sp, tpl, incPool)
		if err == nil {
			c.storeProof(it.probe, r)
			addIncumbent(r)
		}
		out[it.idx].Result, out[it.idx].Err = r, err
	}
}

// solveVariant retargets the group template to one variant's bound and
// solves the clone.
func solveVariant(ctx context.Context, sp Spec, tpl *model.Model, incPool [][]float64) (*Result, error) {
	var (
		m   *model.Model
		err error
	)
	if sp.Objective == MinCost {
		m, err = tpl.SetDeadline(sp.Deadline)
	} else {
		m, err = tpl.SetCostCap(sp.CostCap)
	}
	if err != nil {
		return nil, fmt.Errorf("sos: batch retarget: %w", err)
	}
	res, err := milpSolve(ctx, sp, m, incPool, nil)
	if err != nil {
		return nil, err
	}
	return finishSolve(sp, res)
}

// synthesizeItem is the batch single-item path: cached solve with an
// already-computed probe (identical semantics to Synthesize with
// Spec.Cache set).
func (c *Cache) synthesizeItem(ctx context.Context, sp Spec, p *icache.Probe) (*Result, error) {
	if hit := c.c.Lookup(p); hit != nil {
		return resultFromHit(sp, hit), nil
	}
	return c.solveStore(ctx, sp, p)
}

// storeProof records a solve outcome when it is a proof.
func (c *Cache) storeProof(p *icache.Probe, r *Result) {
	if r == nil {
		return
	}
	switch r.Status {
	case StatusOptimal:
		c.c.Store(p, icache.StoreResult{
			Optimal: true, Design: r.Design, Bound: r.Bound, Nodes: int64(r.Nodes),
		})
	case StatusInfeasible:
		c.c.Store(p, icache.StoreResult{Infeasible: true, Nodes: int64(r.Nodes)})
	}
}
