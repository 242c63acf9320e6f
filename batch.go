package sos

import (
	"context"

	icache "sos/internal/cache"
	"sos/internal/race"
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

// SolveBatch solves a set of related synthesis problems together,
// exploiting their overlap instead of solving each from scratch:
//
//   - Specs are deduplicated and cover-down-matched through a result
//     cache (c, or an ephemeral batch-local cache when c is nil), so
//     identical and cap-covered variants are proved once and fanned out.
//   - Specs that differ only in cost cap / deadline form one problem
//     family: the members solve through one portfolio (raced when
//     Spec.Race is set, like a single solve), the MILP members share one
//     model template — each is an O(1) SetCostCap/SetDeadline clone of it
//     instead of a full model build — and every design a MILP member
//     finds seeds the later, tighter members as an untrusted incumbent.
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

	// A group is the members one problem family solves: specs equal in
	// every field but their bound, keyed by the spec with its bound
	// cleared. Every cacheable topology is a comparable value, so two
	// members share a family only on equal topologies (a bus or shared
	// memory of another cost is another problem). Isomorphic-but-distinct
	// specs are not grouped — they still benefit through canonical-key
	// cache hits, which remap across objects.
	groups := make(map[Spec][]*batchItem)
	var order []Spec
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
		gk := sp
		gk.CostCap, gk.Deadline = 0, 0
		if _, seen := groups[gk]; !seen {
			order = append(order, gk)
		}
		groups[gk] = append(groups[gk], &batchItem{idx: i, sp: sp, probe: probe})
	}

	for _, gk := range order {
		items := groups[gk]
		// Loosest bound first: under MinMakespan higher caps first, under
		// MinCost later deadlines first (uncapped = +Inf leads). Ties keep
		// submission order, so exact duplicates trail their original and
		// hit its freshly stored proof.
		sortByLimitDesc(items)
		fam := newFamily(items[0].sp)
		for _, it := range items {
			if hit := c.c.Lookup(it.probe); hit != nil {
				out[it.idx].Result = resultFromHit(it.sp, hit)
				continue
			}
			r, err := solvePoint(ctx, it.sp, fam, c.c.WarmStarts(it.probe, race.MaxWarm))
			if err == nil {
				c.storeProof(it.probe, r)
			}
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
