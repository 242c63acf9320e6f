package heur

import (
	"context"
	"math"
	"math/rand"

	"sos/internal/arch"
	"sos/internal/schedule"
	"sos/internal/taskgraph"
)

// AnnealOptions tunes the simulated-annealing synthesizer.
type AnnealOptions struct {
	// CostCap bounds the total system cost (0 = uncapped). Over-budget
	// designs are explored with a cost penalty but never returned.
	CostCap float64
	// Iterations of the Metropolis loop (default 5000).
	Iterations int
	// InitialTemp and Cooling control the temperature schedule
	// (defaults 4.0 and 0.999).
	InitialTemp float64
	Cooling     float64
	// Seed makes runs reproducible (default 1).
	Seed int64
}

// Anneal is a simulated-annealing synthesizer over subtask→instance
// mappings, evaluated with the deterministic list scheduler. It is the
// second heuristic comparator (alongside Synthesize's exhaustive
// configuration enumeration): slower to converge but able to escape the
// greedy scheduler's local choices. Returns the best design found.
func Anneal(ctx context.Context, g *taskgraph.Graph, pool *arch.Instances, topo arch.Topology, opts AnnealOptions) (*schedule.Design, error) {
	iters := opts.Iterations
	if iters <= 0 {
		iters = 5000
	}
	temp := opts.InitialTemp
	if temp <= 0 {
		temp = 4
	}
	cooling := opts.Cooling
	if cooling <= 0 || cooling >= 1 {
		cooling = 0.999
	}
	seed := opts.Seed
	if seed == 0 {
		seed = 1
	}
	rng := rand.New(rand.NewSource(seed))

	// Initial mapping: with a cost cap, start from the cheapest capable
	// instance per task (greatest chance of starting inside the budget);
	// uncapped, start from the fastest.
	mapping := make([]arch.ProcID, g.NumSubtasks())
	for _, s := range g.Subtasks() {
		best, bestKey := arch.ProcID(-1), math.Inf(1)
		for _, d := range pool.Capable(s.ID) {
			key := pool.Exec(d, s.ID)
			if opts.CostCap > 0 {
				key = pool.Cost(d)
			}
			if key < bestKey {
				best, bestKey = d, key
			}
		}
		mapping[s.ID] = best
	}
	// Over-budget designs are graded, not rejected: a cost penalty that
	// dominates any makespan gives the walk a gradient toward feasibility
	// instead of a flat infeasible plateau. Only feasible designs can
	// become the incumbent.
	penalty := 10 * g.SerialTime(func(a taskgraph.SubtaskID) float64 {
		worst := 0.0
		for _, d := range pool.Capable(a) {
			if e := pool.Exec(d, a); e > worst {
				worst = e
			}
		}
		return worst
	})
	evaluate := func(mp []arch.ProcID) (*schedule.Design, float64, bool) {
		d, err := ListSchedule(g, pool, topo, mp)
		if err != nil {
			return nil, math.Inf(1), false
		}
		if opts.CostCap > 0 && d.Cost > opts.CostCap+1e-9 {
			return d, d.Makespan + penalty*(d.Cost-opts.CostCap), false
		}
		return d, d.Makespan, true
	}
	cur, curScore, feasible := evaluate(mapping)
	var best *schedule.Design
	bestScore := math.Inf(1)
	if feasible {
		best, bestScore = cur, curScore
	}

	for it := 0; it < iters; it++ {
		if it%128 == 0 && ctx.Err() != nil {
			break
		}
		// Neighbor: move one random task to another capable instance.
		task := taskgraph.SubtaskID(rng.Intn(g.NumSubtasks()))
		caps := pool.Capable(task)
		if len(caps) < 2 {
			continue
		}
		old := mapping[task]
		next := caps[rng.Intn(len(caps))]
		if next == old {
			continue
		}
		mapping[task] = next
		cand, candScore, candFeasible := evaluate(mapping)
		accept := candScore <= curScore
		if !accept && !math.IsInf(candScore, 1) {
			accept = rng.Float64() < math.Exp((curScore-candScore)/temp)
		}
		if accept {
			cur, curScore = cand, candScore
			if candFeasible && candScore < bestScore {
				best, bestScore = cand, candScore
			}
		} else {
			mapping[task] = old
		}
		temp *= cooling
	}
	if best == nil {
		return nil, ErrNotSchedulable
	}
	return best, nil
}
