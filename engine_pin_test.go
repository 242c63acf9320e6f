package sos

import (
	"context"
	"fmt"
	"hash/fnv"
	"testing"

	"sos/internal/arch"
	"sos/internal/expts"
	"sos/internal/telemetry"
)

// frontierDigest is FNV-64a over every point of a frontier: its cost,
// performance, gap and status, and its design's processors, links,
// assignments, transfers, makespan and cost. Floats print in their
// shortest round-trip form, so equal digests mean equal bits.
func frontierDigest(pts []FrontierPoint) string {
	h := fnv.New64a()
	for _, p := range pts {
		fmt.Fprintf(h, "%v %v %v %v|", p.Cost, p.Perf, p.Gap, p.Status)
		if d := p.Design; d != nil {
			fmt.Fprintf(h, "%v %v %v %v %v %v|", d.Procs, d.Links, d.Assignments, d.Transfers, d.Makespan, d.Cost)
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestDefaultEngineWorkPins pins the combinatorial engine's work on the
// paper's three frontiers, swept by the default engine: the mapping and
// scheduling node counts, the installed incumbents, and every bit of every
// frontier point and design. A change to the engine's data structures
// that keeps its order of work leaves all of them unchanged.
func TestDefaultEngineWorkPins(t *testing.T) {
	pins := map[string]struct {
		mapNodes, schedNodes, incumbents int64
		digest                           string
	}{
		"table2": {347, 275, 32, "1b9a06ace7d765c0"},
		"table4": {26054, 18300, 50, "76d53668c3b8a2e7"},
		"table5": {34833, 34095, 22, "0d5b026ec09544da"},
	}
	for _, w := range frontierWorkloads() {
		t.Run(w.name, func(t *testing.T) {
			tel := NewTelemetry(nil)
			sp := w.spec
			sp.Telemetry = tel
			pts, err := Frontier(context.Background(), sp)
			if err != nil {
				t.Fatal(err)
			}
			pin := pins[w.name]
			for _, c := range []struct {
				name      string
				got, want int64
			}{
				{"map_nodes", tel.Get(telemetry.CtrMapNodes), pin.mapNodes},
				{"sched_nodes", tel.Get(telemetry.CtrSchedNodes), pin.schedNodes},
				{"incumbents", tel.Get(telemetry.CtrIncumbents), pin.incumbents},
			} {
				if c.got != c.want {
					t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
				}
			}
			if got := frontierDigest(pts); got != pin.digest {
				t.Errorf("frontier digest %s, want %s", got, pin.digest)
			}
		})
	}
}

// TestRingFrontierPins pins, bit for bit, the §5 ring frontiers the
// combinatorial engine sweeps: Example 1 without I/O modules and
// Example 2. The Example 2 sweep is the slowest default-engine frontier in
// the repository, so it is skipped under the race detector.
func TestRingFrontierPins(t *testing.T) {
	g1, lib1 := expts.Example1()
	g2, lib2 := expts.Example2()
	for _, c := range []struct {
		name   string
		spec   Spec
		digest string
	}{
		{"example1-ring-nooverlapio", Spec{Graph: g1, Library: lib1, Pool: expts.Example1Pool(lib1),
			Topology: arch.Ring{}, NoOverlapIO: true}, "bd18eb0cd91ec28a"},
		{"example2-ring", Spec{Graph: g2, Library: lib2, Pool: expts.Example2Pool(lib2),
			Topology: arch.Ring{}}, "2cf9b6579236a9a4"},
	} {
		t.Run(c.name, func(t *testing.T) {
			if raceEnabled && c.name == "example2-ring" {
				t.Skip("the Example 2 ring sweep takes too long under the race detector")
			}
			pts, err := Frontier(context.Background(), c.spec)
			if err != nil {
				t.Fatal(err)
			}
			if got := frontierDigest(pts); got != c.digest {
				t.Errorf("frontier digest %s (%d points), want %s", got, len(pts), c.digest)
			}
		})
	}
}

// TestMILPEngineWorkPins pins the MILP engine's search on the Example 1
// frontier, point-to-point and on a shared bus: the branch-and-bound
// nodes, how the node relaxations were solved (warm, cold, warm attempts
// that fell back cold, and the dual and primal pivots of the warm
// re-solves), the installed incumbents, and every bit of every frontier
// point and design. Any change to the node order, the branching column
// or the order in which a node's children are pushed moves the node
// counts; a change to the LP kernel or the resolver that keeps its
// pivots leaves all of them unchanged.
func TestMILPEngineWorkPins(t *testing.T) {
	g, lib := expts.Example1()
	for _, c := range []struct {
		name                                                   string
		topo                                                   arch.Topology
		nodes, warm, cold, fallbacks, dual, primal, incumbents int64
		digest                                                 string
	}{
		{"p2p", arch.PointToPoint{}, 381, 260, 121, 31, 7213, 206, 3, "a95de29dd7258ba6"},
		{"bus", arch.Bus{}, 583, 400, 183, 35, 7520, 349, 2, "d28238a5f8230878"},
	} {
		t.Run(c.name, func(t *testing.T) {
			tel := NewTelemetry(nil)
			pts, err := Frontier(context.Background(), Spec{Graph: g, Library: lib,
				Pool: expts.Example1Pool(lib), Topology: c.topo, Engine: EngineMILP, Telemetry: tel})
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range []struct {
				name      string
				got, want int64
			}{
				{"nodes_expanded", tel.Get(telemetry.CtrNodesExpanded), c.nodes},
				{"lp_warm", tel.Get(telemetry.CtrLPWarm), c.warm},
				{"lp_cold", tel.Get(telemetry.CtrLPCold), c.cold},
				{"lp_fallbacks", tel.Get(telemetry.CtrLPFallbacks), c.fallbacks},
				{"lp_dual_iters", tel.Get(telemetry.CtrLPDualIters), c.dual},
				{"lp_primal_iters", tel.Get(telemetry.CtrLPPrimalIters), c.primal},
				{"incumbents", tel.Get(telemetry.CtrIncumbents), c.incumbents},
			} {
				if k.got != k.want {
					t.Errorf("%s = %d, want %d", k.name, k.got, k.want)
				}
			}
			if got := frontierDigest(pts); got != c.digest {
				t.Errorf("frontier digest %s (%d points), want %s", got, len(pts), c.digest)
			}
		})
	}
}
