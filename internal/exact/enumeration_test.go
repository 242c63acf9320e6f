package exact

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"sos/internal/arch"
	"sos/internal/budget"
	"sos/internal/schedule"
	"sos/internal/taskgraph"
)

// TestSynthesizeMatchesEnumeration checks the search against brute force.
// On random instances of up to 6 subtasks it schedules every mapping on a
// fresh workspace at an infinite cutoff and prices each from its design.
// Synthesize must reach the enumerated optimum under MinMakespan, uncapped,
// at a cap that excludes every fastest mapping and at a cap no mapping
// meets, and under MinCost, at a deadline half the mappings meet and at
// one none meets. It must return Infeasible exactly when no mapping
// qualifies. Every objective and topology is covered, with and without
// NoOverlapIO, so both pruning bounds of the mapping DFS are checked where
// the cross-engine fuzz target (MinMakespan, at most 5 subtasks) does not
// reach.
func TestSynthesizeMatchesEnumeration(t *testing.T) {
	topos := []arch.Topology{arch.PointToPoint{}, arch.Bus{}, arch.Ring{}, arch.SharedMemory{Cost: 1}}
	rng := rand.New(rand.NewSource(2026))
	type priced struct{ makespan, cost float64 }
	const maxArcs = 7
	solves, infeasible, binding, six := 0, 0, 0, 0
	covered := map[string]bool{}
	trials := 120
	if raceEnabled {
		trials = 40 // about 10 s under the race detector
	}
	for trial := 0; trial < trials; trial++ {
		// Drawn as TestWorkspaceMatchesFreshScheduler draws its instances,
		// one subtask larger.
		g := taskgraph.Random(rng, taskgraph.RandomSpec{
			Subtasks:  2 + rng.Intn(5),
			ArcProb:   0.3 + rng.Float64()*0.4,
			MaxVol:    3,
			Fractions: trial%2 == 0,
		})
		g.MustFreeze()
		lib := arch.RandomLibrary(rng, g, 2)
		pool := arch.AutoPool(lib, g, 2)
		// The enumeration schedules every mapping at an infinite cutoff,
		// whose cost grows steeply with the transfers to order: a 6-subtask
		// instance with 10 or more arcs takes 8-56 s under NoOverlapIO.
		if pool.NumProcs() == 0 || pool.NumProcs() > 6 || g.NumArcs() > maxArcs {
			continue
		}
		topo := topos[trial%len(topos)]
		covered[topo.Name()] = true
		if g.NumSubtasks() == 6 {
			six++
		}
		for _, noOverlapIO := range []bool{false, true} {
			var all []priced
			forEachMapping(g, pool, func(mapping []arch.ProcID) {
				var hit bool
				dg := newDisjGraph(g, pool, topo, newPathTable(topo, pool.NumProcs()), noOverlapIO)
				d, _ := dg.schedule(mapping, math.Inf(1), &hit, time.Time{})
				all = append(all, priced{d.Makespan, d.Cost})
			})
			// fastest is the least makespan within a cost cap (<= 0
			// uncapped), cheapest the least cost within a deadline; each is
			// +Inf when no mapping qualifies.
			fastest := func(costCap float64) float64 {
				best := math.Inf(1)
				for _, p := range all {
					if (costCap <= 0 || p.cost <= costCap+1e-9) && p.makespan < best {
						best = p.makespan
					}
				}
				return best
			}
			cheapest := func(deadline float64) float64 {
				best := math.Inf(1)
				for _, p := range all {
					if p.makespan <= deadline+1e-9 && p.cost < best {
						best = p.cost
					}
				}
				return best
			}
			minMakespan := fastest(0)
			makespans := make([]float64, len(all))
			for i, p := range all {
				makespans[i] = p.makespan
			}
			slices.Sort(makespans)

			cases := []Options{
				{Objective: MinMakespan},
				// A cap under every mapping's cost.
				{Objective: MinMakespan, CostCap: cheapest(math.Inf(1)) / 2},
				{Objective: MinCost, Deadline: makespans[len(makespans)/2]},
				{Objective: MinCost, Deadline: 0.9 * minMakespan},
			}
			// The dearest cost below that of every fastest mapping, if any,
			// is a cap that binds.
			fastCost, capBelow := cheapest(minMakespan), 0.0
			for _, p := range all {
				if p.cost < fastCost-1e-9 && p.cost > capBelow {
					capBelow = p.cost
				}
			}
			if capBelow > 0 {
				cases = append(cases, Options{Objective: MinMakespan, CostCap: capBelow})
				binding++
			}
			for _, opts := range cases {
				opts.NoOverlapIO = noOverlapIO
				want := cheapest(opts.Deadline)
				if opts.Objective == MinMakespan {
					want = fastest(opts.CostCap)
				}
				name := fmt.Sprintf("trial %d %s noOverlapIO=%v objective %d cap %g deadline %g (%d mappings)",
					trial, topo.Name(), noOverlapIO, opts.Objective, opts.CostCap, opts.Deadline, len(all))
				checkAgainstEnumeration(t, name, g, pool, topo, opts, want)
				solves++
				if math.IsInf(want, 1) {
					infeasible++
				}
			}
		}
	}
	t.Logf("%d solves: %d infeasible, %d at a binding cap; %d instances of 6 subtasks", solves, infeasible, binding, six)
	if len(covered) != len(topos) || solves < 150 || infeasible == 0 || binding == 0 || six == 0 {
		t.Fatalf("weak coverage: topologies %v, %d solves, %d infeasible, %d at a binding cap, %d instances of 6 subtasks",
			covered, solves, infeasible, binding, six)
	}
}

// checkAgainstEnumeration runs one search and compares it with the
// enumerated optimum want (+Inf when no mapping qualifies).
func checkAgainstEnumeration(t *testing.T, name string, g *taskgraph.Graph, pool *arch.Instances, topo arch.Topology, opts Options, want float64) {
	t.Helper()
	res, err := Synthesize(context.Background(), g, pool, topo, opts)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if math.IsInf(want, 1) {
		if res.Status != budget.StatusInfeasible || res.Design != nil {
			t.Fatalf("%s: status %v, want Infeasible", name, res.Status)
		}
		return
	}
	d := res.Design
	if res.Status != budget.StatusOptimal || d == nil {
		t.Fatalf("%s: status %v, want Optimal at %g", name, res.Status, want)
	}
	if err := d.Validate(&schedule.ValidateOptions{NoOverlapIO: opts.NoOverlapIO}); err != nil {
		t.Fatalf("%s: invalid design: %v", name, err)
	}
	got := d.Makespan
	if opts.Objective == MinCost {
		got = d.Cost
		if d.Makespan > opts.Deadline+1e-9 {
			t.Fatalf("%s: makespan %g misses the deadline", name, d.Makespan)
		}
	} else if opts.CostCap > 0 && d.Cost > opts.CostCap+1e-9 {
		t.Fatalf("%s: cost %g breaks the cap", name, d.Cost)
	}
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("%s: objective %g, enumeration says %g", name, got, want)
	}
}
