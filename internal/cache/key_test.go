package cache

import (
	"math/rand"
	"testing"

	"sos/internal/arch"
	"sos/internal/expts"
	"sos/internal/taskgraph"
)

// permute rebuilds (g, lib) with subtasks renamed and inserted in the
// order nodeOrder, arcs inserted in the order arcOrder, and library types
// renamed and added in the order typeOrder — a semantically identical
// problem under a different presentation.
func permute(g *taskgraph.Graph, lib *arch.Library, nodeOrder []int, arcOrder []int, typeOrder []int) (*taskgraph.Graph, *arch.Library) {
	ng := taskgraph.New(g.Name + "-perm")
	newID := make([]taskgraph.SubtaskID, g.NumSubtasks())
	for _, old := range nodeOrder {
		newID[old] = ng.AddSubtask("renamed-" + string(rune('A'+old)))
		ng.SetMem(newID[old], g.Subtask(taskgraph.SubtaskID(old)).Mem)
	}
	for _, ai := range arcOrder {
		a := g.Arc(taskgraph.ArcID(ai))
		ng.AddArc(newID[a.Src], newID[a.Dst], taskgraph.ArcSpec{
			Volume: a.Volume, FR: a.FR, FA: a.FA, StrictFA: true,
		})
	}
	ng.MustFreeze()

	nlib := arch.NewLibrary(lib.Name+"-perm", lib.LinkCost, lib.RemoteDelay, lib.LocalDelay)
	nlib.MemCostPerUnit = lib.MemCostPerUnit
	for _, ti := range typeOrder {
		t := lib.Type(arch.TypeID(ti))
		exec := make([]float64, ng.NumSubtasks())
		for i := range exec {
			exec[i] = arch.NoTime
		}
		for _, s := range g.Subtasks() {
			exec[newID[s.ID]] = lib.Exec(t.ID, s.ID)
		}
		nlib.AddType("q"+string(rune('0'+ti)), t.Cost, exec)
	}
	return ng, nlib
}

// permutedCounts reorders the per-type pool counts to match a permuted
// library's type order.
func permutedCounts(counts []int, typeOrder []int) []int {
	out := make([]int, len(counts))
	for pos, old := range typeOrder {
		out[pos] = counts[old]
	}
	return out
}

func mustProbe(t testing.TB, req Request) *Probe {
	t.Helper()
	p, err := Prepare(req)
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	return p
}

// TestKeyInvariance: renaming and reordering subtasks, arcs, and
// same-type processor instances must not change the canonical key, on
// both paper workloads and across topologies.
func TestKeyInvariance(t *testing.T) {
	workloads := []struct {
		name string
		g    *taskgraph.Graph
		lib  *arch.Library
		pool []int
	}{}
	g1, lib1 := expts.Example1()
	workloads = append(workloads, struct {
		name string
		g    *taskgraph.Graph
		lib  *arch.Library
		pool []int
	}{"example1", g1, lib1, []int{2, 2, 2}})
	g2, lib2 := expts.Example2()
	workloads = append(workloads, struct {
		name string
		g    *taskgraph.Graph
		lib  *arch.Library
		pool []int
	}{"example2", g2, lib2, []int{2, 2, 2}})

	topos := []arch.Topology{arch.PointToPoint{}, arch.Bus{Cost: 1}, arch.Ring{}}
	rng := rand.New(rand.NewSource(11))

	for _, w := range workloads {
		for _, topo := range topos {
			base := mustProbe(t, Request{
				Graph: w.g, Pool: arch.InstancePool(w.lib, w.pool), Topo: topo,
				CostCap: 10,
			})
			for trial := 0; trial < 8; trial++ {
				nodeOrder := rng.Perm(w.g.NumSubtasks())
				arcOrder := rng.Perm(w.g.NumArcs())
				typeOrder := []int{0, 1, 2}
				if _, isRing := topo.(arch.Ring); !isRing {
					typeOrder = rng.Perm(w.lib.NumTypes())
				}
				pg, plib := permute(w.g, w.lib, nodeOrder, arcOrder, typeOrder)
				perm := mustProbe(t, Request{
					Graph: pg, Pool: arch.InstancePool(plib, permutedCounts(w.pool, typeOrder)), Topo: topo,
					CostCap: 10,
				})
				if perm.Key() != base.Key() {
					t.Fatalf("%s/%s trial %d: permuted spec changed key\nnodes %v arcs %v types %v",
						w.name, topo.Name(), trial, nodeOrder, arcOrder, typeOrder)
				}
			}
		}
	}
}

// TestKeySeparation: semantically different specs must get different
// keys; cap-only variants must share a family but not a key.
func TestKeySeparation(t *testing.T) {
	g, lib := expts.Example1()
	pool := expts.Example1Pool(lib)
	base := mustProbe(t, Request{Graph: g, Pool: pool, Topo: arch.PointToPoint{}, CostCap: 10})

	// Same family, different cap → same family key, different full key.
	relaxed := mustProbe(t, Request{Graph: g, Pool: pool, Topo: arch.PointToPoint{}, CostCap: 14})
	if relaxed.Family() != base.Family() {
		t.Fatalf("cap change altered the family key")
	}
	if relaxed.Key() == base.Key() {
		t.Fatalf("cap change did not alter the full key")
	}
	// Uncapped normalizes: cap 0 and any negative cap collide.
	un0 := mustProbe(t, Request{Graph: g, Pool: pool, Topo: arch.PointToPoint{}})
	unNeg := mustProbe(t, Request{Graph: g, Pool: pool, Topo: arch.PointToPoint{}, CostCap: -3})
	if un0.Key() != unNeg.Key() {
		t.Fatalf("uncapped requests did not normalize to one key")
	}

	mutants := []Request{
		{Graph: g, Pool: pool, Topo: arch.Bus{Cost: 1}, CostCap: 10},
		{Graph: g, Pool: pool, Topo: arch.Bus{Cost: 2}, CostCap: 10},
		{Graph: g, Pool: pool, Topo: arch.PointToPoint{}, CostCap: 10, Memory: true},
		{Graph: g, Pool: pool, Topo: arch.PointToPoint{}, CostCap: 10, NoOverlapIO: true},
		{Graph: g, Pool: pool, Topo: arch.PointToPoint{}, Objective: MinCost, Deadline: 10},
		{Graph: g, Pool: arch.InstancePool(lib, []int{1, 2, 2}), Topo: arch.PointToPoint{}, CostCap: 10},
	}
	seen := map[Key]string{base.Key(): "base"}
	for i, m := range mutants {
		p := mustProbe(t, m)
		if prev, dup := seen[p.Key()]; dup {
			t.Fatalf("mutant %d collides with %s", i, prev)
		}
		seen[p.Key()] = "mutant"
	}

	// Structural mutations: perturb one exec entry, one cost, one arc
	// attribute — each must separate.
	execMut := arch.NewLibrary(lib.Name, lib.LinkCost, lib.RemoteDelay, lib.LocalDelay)
	for _, tt := range lib.Types() {
		exec := make([]float64, g.NumSubtasks())
		for _, s := range g.Subtasks() {
			exec[s.ID] = lib.Exec(tt.ID, s.ID)
		}
		if tt.ID == 0 {
			exec[2] = 11 // p1 on S3: 12 → 11
		}
		execMut.AddType(tt.Name, tt.Cost, exec)
	}
	p := mustProbe(t, Request{Graph: g, Pool: arch.InstancePool(execMut, []int{2, 2, 2}), Topo: arch.PointToPoint{}, CostCap: 10})
	if _, dup := seen[p.Key()]; dup {
		t.Fatalf("exec-time mutant collided")
	}

	ag := taskgraph.New("example1-volmut")
	for _, s := range g.Subtasks() {
		ag.AddSubtask(s.Name)
	}
	for _, a := range g.Arcs() {
		v := a.Volume
		if a.ID == 0 {
			v = 2
		}
		ag.AddArc(a.Src, a.Dst, taskgraph.ArcSpec{Volume: v, FR: a.FR, FA: a.FA, StrictFA: true})
	}
	ag.MustFreeze()
	p = mustProbe(t, Request{Graph: ag, Pool: pool, Topo: arch.PointToPoint{}, CostCap: 10})
	if _, dup := seen[p.Key()]; dup {
		t.Fatalf("arc-volume mutant collided")
	}
}

// TestKeyRingPinsInstances: on a ring, swapping two types' library
// positions is semantically significant (instances sit at ring slots in
// library order), so the key must change — while on p2p it must not.
func TestKeyRingPinsInstances(t *testing.T) {
	g, lib := expts.Example1()
	swapped := []int{1, 0, 2}
	pg, plib := permute(g, lib, []int{0, 1, 2, 3}, []int{0, 1, 2}, swapped)

	baseP2P := mustProbe(t, Request{Graph: g, Pool: arch.InstancePool(lib, []int{2, 1, 2}), Topo: arch.PointToPoint{}, CostCap: 10})
	permP2P := mustProbe(t, Request{Graph: pg, Pool: arch.InstancePool(plib, permutedCounts([]int{2, 1, 2}, swapped)), Topo: arch.PointToPoint{}, CostCap: 10})
	if baseP2P.Key() != permP2P.Key() {
		t.Fatalf("p2p: type reordering changed the key")
	}

	baseRing := mustProbe(t, Request{Graph: g, Pool: arch.InstancePool(lib, []int{2, 1, 2}), Topo: arch.Ring{}, CostCap: 10})
	permRing := mustProbe(t, Request{Graph: pg, Pool: arch.InstancePool(plib, permutedCounts([]int{2, 1, 2}, swapped)), Topo: arch.Ring{}, CostCap: 10})
	if baseRing.Key() == permRing.Key() {
		t.Fatalf("ring: type reordering must change the key (slot positions are semantic)")
	}
}

// TestKeyInvarianceStructured runs the invariance property over seeded
// series-parallel graphs with random libraries — the corpus the fuzz
// target extends.
func TestKeyInvarianceStructured(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 12; trial++ {
		g := taskgraph.SeriesParallel(rng, taskgraph.StructuredSpec{Subtasks: 6 + rng.Intn(10), MaxFan: 3})
		lib := arch.RandomLibrary(rng, g, 3)
		counts := []int{1 + rng.Intn(2), 1 + rng.Intn(2), 1 + rng.Intn(2)}
		base := mustProbe(t, Request{Graph: g, Pool: arch.InstancePool(lib, counts), Topo: arch.PointToPoint{}, CostCap: 20})

		nodeOrder := rng.Perm(g.NumSubtasks())
		arcOrder := rng.Perm(g.NumArcs())
		typeOrder := rng.Perm(lib.NumTypes())
		pg, plib := permute(g, lib, nodeOrder, arcOrder, typeOrder)
		perm := mustProbe(t, Request{Graph: pg, Pool: arch.InstancePool(plib, permutedCounts(counts, typeOrder)), Topo: arch.PointToPoint{}, CostCap: 20})
		if base.Key() != perm.Key() {
			t.Fatalf("trial %d: permuted structured spec changed key", trial)
		}
	}
}
