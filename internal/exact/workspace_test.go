package exact

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"sos/internal/arch"
	"sos/internal/expts"
	"sos/internal/schedule"
	"sos/internal/taskgraph"
)

// designText renders every field of a design that the scheduler sets.
// Floats print in their shortest round-trip form, so two renderings are
// equal exactly when the designs are equal bit for bit.
func designText(d *schedule.Design) string {
	if d == nil {
		return "<nil>"
	}
	return fmt.Sprintf("procs %v links %v assign %v transfers %v makespan %v cost %v",
		d.Procs, d.Links, d.Assignments, d.Transfers, d.Makespan, d.Cost)
}

// forEachMapping calls f with every mapping of g's subtasks onto capable
// instances of pool, in lexicographic order. f must not keep the slice.
func forEachMapping(g *taskgraph.Graph, pool *arch.Instances, f func([]arch.ProcID)) {
	mapping := make([]arch.ProcID, g.NumSubtasks())
	var rec func(a int)
	rec = func(a int) {
		if a == len(mapping) {
			f(mapping)
			return
		}
		for _, d := range pool.Capable(taskgraph.SubtaskID(a)) {
			mapping[a] = d
			rec(a + 1)
		}
	}
	rec(0)
}

// TestWorkspaceMatchesFreshScheduler schedules every mapping of random
// instances twice: on one workspace reused across all of an instance's
// mappings and cutoffs, and on a fresh workspace per call. Both must give
// the same design bit for bit and the same number of scheduling nodes, on
// every topology, with and without NoOverlapIO, at an infinite cutoff and
// at a finite one.
func TestWorkspaceMatchesFreshScheduler(t *testing.T) {
	topos := []arch.Topology{arch.PointToPoint{}, arch.Bus{}, arch.Ring{}, arch.SharedMemory{Cost: 1}}
	rng := rand.New(rand.NewSource(2024))
	mappings, pruned, found := 0, 0, 0
	covered := map[string]bool{}
	for trial := 0; trial < 12; trial++ {
		// Drawn the way the cross-engine fuzz target draws its instances.
		g := taskgraph.Random(rng, taskgraph.RandomSpec{
			Subtasks:  2 + rng.Intn(4),
			ArcProb:   0.3 + rng.Float64()*0.4,
			MaxVol:    3,
			Fractions: trial%2 == 0,
		})
		g.MustFreeze()
		lib := arch.RandomLibrary(rng, g, 2)
		pool := arch.AutoPool(lib, g, 2)
		if pool.NumProcs() == 0 || pool.NumProcs() > 6 {
			continue
		}
		topo := topos[trial%len(topos)]
		covered[topo.Name()] = true
		for _, noOverlapIO := range []bool{false, true} {
			name := fmt.Sprintf("trial %d %s noOverlapIO=%v", trial, topo.Name(), noOverlapIO)
			ws := newDisjGraph(g, pool, topo, newPathTable(topo, pool.NumProcs()), noOverlapIO)
			// The finite cutoff is the first mapping's optimum, so later
			// mappings split between pruned and improving ones.
			finite := math.NaN()
			forEachMapping(g, pool, func(mapping []arch.ProcID) {
				for _, cutoff := range []float64{math.Inf(1), finite} {
					if math.IsNaN(cutoff) {
						continue
					}
					var hitReused, hitFresh bool
					reused, nReused := ws.schedule(mapping, cutoff, &hitReused, time.Time{})
					fresh := newDisjGraph(g, pool, topo, newPathTable(topo, pool.NumProcs()), noOverlapIO)
					want, nWant := fresh.schedule(mapping, cutoff, &hitFresh, time.Time{})
					if got, w := designText(reused), designText(want); got != w || nReused != nWant {
						t.Fatalf("%s mapping %v cutoff %g:\nreused %d nodes, %s\nfresh  %d nodes, %s",
							name, mapping, cutoff, nReused, got, nWant, w)
					}
					if want == nil {
						pruned++
					} else {
						found++
						if err := want.Validate(&schedule.ValidateOptions{NoOverlapIO: noOverlapIO}); err != nil {
							t.Fatalf("%s mapping %v: invalid schedule: %v", name, mapping, err)
						}
					}
				}
				if math.IsNaN(finite) {
					var hit bool
					d, _ := ws.schedule(mapping, math.Inf(1), &hit, time.Time{})
					finite = d.Makespan
				}
				mappings++
			})
		}
	}
	t.Logf("%d mappings: %d pruned, %d found schedules", mappings, pruned, found)
	if len(covered) != len(topos) || mappings < 500 || pruned == 0 || found == 0 {
		t.Fatalf("weak coverage: topologies %v, %d mappings, %d pruned and %d found schedules",
			covered, mappings, pruned, found)
	}
}

// TestSynthesizeAllocations bounds the allocations of one search: the node
// loop allocates nothing per node, so an Example 2 bus search of about
// 13 000 mapping nodes stays within a few hundred allocations.
func TestSynthesizeAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	g, lib := expts.Example2()
	pool := expts.Example2Pool(lib)
	var nodes int
	allocs := testing.AllocsPerRun(1, func() {
		res, err := Synthesize(context.Background(), g, pool, arch.Bus{}, Options{Objective: MinMakespan, CostCap: 15})
		if err != nil || !res.Optimal {
			t.Fatalf("search failed: %v", err)
		}
		nodes = res.Nodes
	})
	t.Logf("%d mapping nodes, %.0f allocations", nodes, allocs)
	if allocs >= 2000 {
		t.Errorf("%.0f allocations for %d mapping nodes, want fewer than 2000", allocs, nodes)
	}
}
