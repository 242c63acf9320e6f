package cache

import (
	"encoding/hex"
	"fmt"
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

// pinnedKeyRequests are the requests whose keys TestKeyBytesPinned pins:
// the paper's examples under each topology and variant switch, and seeded
// series-parallel instances with random libraries.
func pinnedKeyRequests() []struct {
	name string
	req  Request
} {
	g1, lib1 := expts.Example1()
	g2, lib2 := expts.Example2()
	reqs := []struct {
		name string
		req  Request
	}{
		{"ex1-p2p-cap14", Request{Graph: g1, Pool: expts.Example1Pool(lib1), Topo: arch.PointToPoint{}, CostCap: 14}},
		{"ex1-bus", Request{Graph: g1, Pool: expts.Example1Pool(lib1), Topo: arch.Bus{}}},
		{"ex1-ring-nooverlapio", Request{Graph: g1, Pool: expts.Example1Pool(lib1), Topo: arch.Ring{}, NoOverlapIO: true}},
		{"ex2-p2p-cap15", Request{Graph: g2, Pool: expts.Example2Pool(lib2), Topo: arch.PointToPoint{}, CostCap: 15}},
		{"ex2-bus-memory", Request{Graph: g2, Pool: expts.Example2Pool(lib2), Topo: arch.Bus{}, Memory: true}},
	}
	topos := []arch.Topology{arch.PointToPoint{}, arch.Bus{Cost: 1}, arch.SharedMemory{Cost: 2}, arch.Ring{}}
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := taskgraph.SeriesParallel(rng, taskgraph.StructuredSpec{Subtasks: 6 + rng.Intn(10), MaxFan: 3, Fractions: seed%2 == 0})
		lib := arch.RandomLibrary(rng, g, 3)
		req := Request{Graph: g, Pool: arch.AutoPool(lib, g, 2), Topo: topos[seed%4], CostCap: 20}
		if seed%3 == 0 {
			req.Objective, req.CostCap, req.Deadline = MinCost, 0, 30
		}
		reqs = append(reqs, struct {
			name string
			req  Request
		}{fmt.Sprintf("sp-seed%d", seed), req})
	}
	return reqs
}

// TestKeyBytesPinned pins the family and full keys of fixed requests,
// byte for byte. Persisted spills are looked up by these keys, so a change
// to how they are computed must leave every one of them unchanged.
func TestKeyBytesPinned(t *testing.T) {
	want := map[string][2]string{
		"ex1-p2p-cap14": {
			"359457ab35eae1230ae73bbfbc360c8f3e5a6a15c86f88242fa42d1d2396eb43",
			"bff61c0e9a319307211f1361aa1c2a9c40729cddf76702d6e8a2545d99094b83",
		},
		"ex1-bus": {
			"066d629fbd60257e9b5a339ff495fcfe7135c2c49d169acebf9fc05492f63dda",
			"8ce0f492a7d3ede0f417334043ebbbbf94d34327f76b557ab762937fc06a07a4",
		},
		"ex1-ring-nooverlapio": {
			"0a59173a5460eec71f0f55fb3f2c7b9f55841ae8a9cb7304c5bc47e6fb258b35",
			"94d5d727f2c6ad5bcc4e93ddbb2815ca8a8f0c6a3a28ec233e0cabfc4fcaf118",
		},
		"ex2-p2p-cap15": {
			"f4403df51697a8311ddab3b04932453a83939f35cd311f113212fcb72c4bad4b",
			"76cb24301ecab0c950cd589df4d57b2f36c8e6556d2aeeaee3772db14449e28a",
		},
		"ex2-bus-memory": {
			"9decc2fd2a0c01351cf3d861db6feebd3c8ac42c6fcdb3d21966716ad5459e05",
			"7864daf97ca27e4f64af71a389075f35df8694329d594ef2fbd8f000f0178e4d",
		},
		"sp-seed1": {
			"158280f9352c977eeac1cb194a90801c43cb9c43af5d73d684e2297c5595069a",
			"278207eb0df9fb8581027cd8a3f82f3409cffeacb6bfe6cdcee56736c1edcf85",
		},
		"sp-seed2": {
			"eae4af43b358e0a08a531203b9b4fda439e3560e5c21d4b7c8fa74ba8f85314e",
			"0a8293c45e7f1b7e1239f338dd56d47d501dc7d9094cd422b78e984e1092e0fb",
		},
		"sp-seed3": {
			"c6165b08a6709948a6bcdf825d708f55a991728363cdb2db3db1f9d383d30212",
			"f9bc47c7946abda782c44d436e732c06bbf98b2c2efa478f17f9d083f70502e3",
		},
		"sp-seed4": {
			"5cb82c4995571d003fb6f697ad85e9f5c2dd3d35743d357f523902ead6255545",
			"b58091105c7b66bfd6b3cb464e8746dfce225025850a3fac9e5fe8af8529e586",
		},
		"sp-seed5": {
			"b778d3760568950c57beeb2681440e5249bc44aa55ff3880820bab9e90d56bb0",
			"a661f32deaf2f83f33eefe64c5175677f5d5723dfa7435ee0661f799e8884685",
		},
		"sp-seed6": {
			"ed1b655ab1e11ad25eddfb06ca2d1168ac6df0ad1a90921982acf03538cf6998",
			"81ea69779e0e085eefed11bc9ac283343c327138d066d700fc30e9ca93c63125",
		},
		"sp-seed7": {
			"b2c755d2626b1086f06b6fc4ccfb07b56d55e6a96f74f084d137edf1bf611d91",
			"fb54fa236a40a03cb9bd7075f2be1df1553435bdc987a432eb3a23d89c837935",
		},
		"sp-seed8": {
			"d7a5b40dfa7c1d48ea1f0361240b6b6ff4431f367456127e7ed79cb86f574ae3",
			"1b2b432d6c51162f8c586817a67185de2dc205e4f6359493935755334449f668",
		},
	}
	for _, c := range pinnedKeyRequests() {
		p := mustProbe(t, c.req)
		fam, key := p.Family(), p.Key()
		got := [2]string{hex.EncodeToString(fam[:]), hex.EncodeToString(key[:])}
		if w, ok := want[c.name]; !ok || got != w {
			t.Errorf("%s: keys\n\tfamily %s\n\tkey    %s\nwant\n\tfamily %s\n\tkey    %s", c.name, got[0], got[1], w[0], w[1])
		}
	}
}

// BenchmarkPrepare times canonicalization, which every cached request
// pays once, over the pinned requests.
func BenchmarkPrepare(b *testing.B) {
	reqs := pinnedKeyRequests()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, c := range reqs {
			if _, err := Prepare(c.req); err != nil {
				b.Fatal(err)
			}
		}
	}
}
