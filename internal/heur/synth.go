package heur

import (
	"fmt"
	"math"

	"sos/internal/arch"
	"sos/internal/schedule"
	"sos/internal/taskgraph"
)

// SynthOptions configures the greedy synthesizer.
type SynthOptions struct {
	// CostCap bounds the total system cost (processors + links used by the
	// resulting schedule). Zero means uncapped.
	CostCap float64
	// MaxPerType caps the instances of each processor type considered
	// (default 2).
	MaxPerType int
	// MaxCounts, when non-nil, caps instances per type individually
	// (indexed by TypeID) and overrides MaxPerType.
	MaxCounts []int
}

// SynthesizeOnPool runs Synthesize under costCap with no more instances
// of a type than pool offers, and returns the design remapped onto pool
// and canonicalized, or nil when nothing valid fits within the cap. It is
// how an exact engine's pool receives a greedy design: as a warm start,
// as a degradation rung, or on a race's incumbent bus.
func SynthesizeOnPool(g *taskgraph.Graph, pool *arch.Instances, topo arch.Topology, costCap float64) *schedule.Design {
	// The synthesizer may not use more instances of a type than the
	// pool offers, or the remap back onto the pool fails.
	maxCounts := make([]int, pool.Library().NumTypes())
	for _, p := range pool.Procs() {
		maxCounts[p.Type]++
	}
	hd, err := Synthesize(g, pool.Library(), topo, SynthOptions{CostCap: costCap, MaxCounts: maxCounts})
	if err != nil {
		return nil
	}
	remapped, err := schedule.RemapPool(hd, pool)
	if err != nil {
		return nil
	}
	canon, err := schedule.Canonicalize(remapped)
	if err != nil || canon.Validate(nil) != nil {
		return nil
	}
	return canon
}

// Synthesize is a heuristic multiprocessor synthesizer in the spirit of
// Talukdar & Mehrotra's iterative method: it enumerates processor
// configurations (multisets of types), ETF-schedules the task graph onto
// each, prices the resulting system (processors plus the links the schedule
// actually used), and returns the best-performing design within the cost
// cap. It is not exact — it is the baseline the MILP is measured against,
// and its result seeds the MILP's incumbent.
//
// The returned design's pool is arch.InstancePool(lib, counts) for the
// winning configuration; use schedule.RemapPool to move it onto another
// pool if needed.
func Synthesize(g *taskgraph.Graph, lib *arch.Library, topo arch.Topology, opts SynthOptions) (*schedule.Design, error) {
	maxPer := opts.MaxPerType
	if maxPer <= 0 {
		maxPer = 2
	}
	nt := lib.NumTypes()
	counts := make([]int, nt)
	var best *schedule.Design

	var walk func(t int)
	walk = func(t int) {
		if t == nt {
			any := false
			for _, c := range counts {
				if c > 0 {
					any = true
					break
				}
			}
			if !any {
				return
			}
			// Quick price check on processors alone.
			procCost := 0.0
			for ti, c := range counts {
				procCost += float64(c) * lib.Type(arch.TypeID(ti)).Cost
			}
			if opts.CostCap > 0 && procCost > opts.CostCap {
				return
			}
			pool := arch.InstancePool(lib, counts)
			// Every subtask needs a capable instance.
			for _, s := range g.Subtasks() {
				if len(pool.Capable(s.ID)) == 0 {
					return
				}
			}
			procs := make([]arch.ProcID, pool.NumProcs())
			for i := range procs {
				procs[i] = arch.ProcID(i)
			}
			d, err := ETF(g, pool, topo, procs)
			if err != nil {
				return
			}
			if opts.CostCap > 0 && d.Cost > opts.CostCap {
				return
			}
			if best == nil || d.Makespan < best.Makespan-1e-12 ||
				(math.Abs(d.Makespan-best.Makespan) <= 1e-12 && d.Cost < best.Cost) {
				best = d
			}
			return
		}
		limit := maxPer
		if opts.MaxCounts != nil {
			limit = opts.MaxCounts[t]
		}
		for c := 0; c <= limit; c++ {
			counts[t] = c
			walk(t + 1)
		}
		counts[t] = 0
	}
	walk(0)
	if best == nil {
		return nil, fmt.Errorf("heur: no feasible configuration within cost cap %g", opts.CostCap)
	}
	return best, nil
}
