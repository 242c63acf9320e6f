package heur

import (
	"context"
	"fmt"
	"math"
	"slices"

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

// SynthesizeOnPool runs Synthesize under costCap on pool's own
// instances — a configuration with c instances of a type uses that type's
// first c copies — and returns the design canonicalized (except on a
// ring, whose instance positions are fixed), or nil when nothing valid
// fits within the cap. It is how an exact engine's pool receives a greedy
// design: as a warm start, as a portfolio rung, or on a race's incumbent
// bus. A canceled ctx stops the configuration walk, keeping the best
// design found so far.
func SynthesizeOnPool(ctx context.Context, g *taskgraph.Graph, pool *arch.Instances, topo arch.Topology, costCap float64) *schedule.Design {
	maxCounts := make([]int, pool.Library().NumTypes())
	for _, p := range pool.Procs() {
		maxCounts[p.Type]++
	}
	d, err := synthesize(ctx, g, pool.Library(), topo, SynthOptions{CostCap: costCap, MaxCounts: maxCounts}, pool)
	if err != nil {
		return nil
	}
	if _, ring := topo.(arch.Ring); !ring {
		if d, err = schedule.Canonicalize(d); err != nil {
			return nil
		}
	}
	if d.Validate(nil) != nil {
		return nil
	}
	return d
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
	return synthesize(context.Background(), g, lib, topo, opts, nil)
}

// synthesize walks the count vectors type by type, scheduling each on
// arch.InstancePool(lib, counts), or on the matching copies of onto when
// it is non-nil. A partial vector is cut once its processors already
// cost more than the cap (when no type costs less than zero) or once some
// subtask has no capable type left; every leaf under such a cut fails the
// leaf's own checks, so the cuts change the walk's cost, never its result.
func synthesize(ctx context.Context, g *taskgraph.Graph, lib *arch.Library, topo arch.Topology, opts SynthOptions, onto *arch.Instances) (*schedule.Design, error) {
	maxPer := opts.MaxPerType
	if maxPer <= 0 {
		maxPer = 2
	}
	nt := lib.NumTypes()
	subs := g.Subtasks()
	limit := make([]int, nt)
	costPrune := opts.CostCap > 0
	for t := range limit {
		limit[t] = maxPer
		if opts.MaxCounts != nil {
			limit[t] = opts.MaxCounts[t]
		}
		costPrune = costPrune && lib.Type(arch.TypeID(t)).Cost >= 0
	}
	// left[t][s]: some type u >= t with limit[u] > 0 runs subtask s.
	left := make([][]bool, nt+1)
	left[nt] = make([]bool, len(subs))
	for t := nt - 1; t >= 0; t-- {
		left[t] = slices.Clone(left[t+1])
		for i, s := range subs {
			left[t][i] = left[t][i] || (limit[t] > 0 && lib.CanRun(arch.TypeID(t), s.ID))
		}
	}
	counts := make([]int, nt)
	have := make([]int, len(subs)) // chosen types so far that run each subtask
	var best *schedule.Design

	var walk func(t int, procCost float64)
	walk = func(t int, procCost float64) {
		if ctx.Err() != nil || (costPrune && procCost > opts.CostCap) {
			return
		}
		for i := range subs {
			if have[i] == 0 && !left[t][i] {
				return
			}
		}
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
			if opts.CostCap > 0 && procCost > opts.CostCap {
				return
			}
			pool, procs := onto, []arch.ProcID(nil)
			if onto == nil {
				pool = arch.InstancePool(lib, counts)
			}
			for _, p := range pool.Procs() {
				if p.Index < counts[p.Type] {
					procs = append(procs, p.ID)
				}
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
		cost := lib.Type(arch.TypeID(t)).Cost
		for c := 0; c <= limit[t]; c++ {
			if c == 1 {
				for i, s := range subs {
					if lib.CanRun(arch.TypeID(t), s.ID) {
						have[i]++
					}
				}
			}
			counts[t] = c
			walk(t+1, procCost+float64(c)*cost)
		}
		if limit[t] > 0 {
			for i, s := range subs {
				if lib.CanRun(arch.TypeID(t), s.ID) {
					have[i]--
				}
			}
		}
		counts[t] = 0
	}
	walk(0, 0)
	if best == nil {
		return nil, fmt.Errorf("heur: no feasible configuration within cost cap %g", opts.CostCap)
	}
	return best, nil
}
