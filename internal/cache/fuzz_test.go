package cache

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"sos/internal/arch"
	"sos/internal/expts"
	"sos/internal/taskgraph"
)

// FuzzSpillLine fuzzes the one spill loader: arbitrary line bytes must
// never panic, and every entry they restore must pass the load-time
// re-check (bound = design objective, design within its own cap and
// deadline, simulator replay agrees). Seeded with a real single-solve
// proof line and the real lines of a swept chain (tightened points and
// the infeasible final cap).
func FuzzSpillLine(f *testing.F) {
	g, lib := expts.Example1()
	pool := expts.Example1Pool(lib)
	p2p := arch.PointToPoint{}
	path := filepath.Join(f.TempDir(), "seed.jsonl")
	c := newCache(f, Options{PersistPath: path})
	prove(f, c, mustProbe(f, Request{Graph: g, Pool: pool, Topo: p2p, CostCap: 14}))
	sweepThrough(f, g, pool, p2p, c.View(mustProbe(f, Request{Graph: g, Pool: pool, Topo: p2p}), 1, 0), nil, 0)
	if err := c.Close(); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	for _, line := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
		f.Add(line)
	}

	f.Fuzz(func(t *testing.T, line []byte) {
		c := newCache(t, Options{})
		restored, _ := c.loadSpill(bytes.NewReader(line))
		if n := c.Len(); n > restored {
			t.Fatalf("cache holds %d entries after restoring %d lines", n, restored)
		}
		for _, s := range c.shards {
			for el := s.lru.Front(); el != nil; el = el.Next() {
				e := el.Value.(*entry)
				if e.infeasible {
					continue
				}
				if err := recheck(&e.req, e.design, e.objVal); err != nil {
					t.Fatalf("restored entry fails its re-check: %v", err)
				}
			}
		}
	})
}

// FuzzCanonicalKey is the soundness fuzzer for the canonical hasher:
//
//   - Invariance: renaming/reordering subtasks and arcs, and permuting
//     same-type processor instances (whole library types with their pool
//     counts), must never change the key.
//   - Separation: a semantic mutation — perturbing one exec time, one
//     arc volume, one type cost, or one pool count — must change the key
//     (on these workloads nothing else collides with the mutant).
//
// The fuzz input seeds the permutation and selects workload, topology,
// and mutation deterministically, so every crash is replayable.
func FuzzCanonicalKey(f *testing.F) {
	f.Add(uint16(0), uint8(0), uint8(0), int64(1))
	f.Add(uint16(1), uint8(1), uint8(1), int64(2))
	f.Add(uint16(7), uint8(2), uint8(2), int64(3))
	f.Add(uint16(42), uint8(3), uint8(0), int64(4))
	f.Add(uint16(9), uint8(4), uint8(1), int64(-5))
	f.Add(uint16(13), uint8(5), uint8(2), int64(0)) // negative-zero seed: pins -0 == 0 below

	f.Fuzz(func(t *testing.T, seed uint16, workload, topoSel uint8, rawDelta int64) {
		var g *taskgraph.Graph
		var lib *arch.Library
		if workload%2 == 0 {
			g, lib = expts.Example1()
		} else {
			g, lib = expts.Example2()
		}
		counts := []int{2, 2, 2}
		var topo arch.Topology
		switch topoSel % 3 {
		case 0:
			topo = arch.PointToPoint{}
		case 1:
			topo = arch.Bus{Cost: 1}
		case 2:
			topo = arch.Ring{}
		}
		req := Request{Graph: g, Pool: arch.InstancePool(lib, counts), Topo: topo, CostCap: 9}
		base, err := Prepare(req)
		if err != nil {
			t.Fatalf("Prepare(base): %v", err)
		}

		// Invariance under a seed-derived re-presentation.
		rng := rand.New(rand.NewSource(int64(seed)))
		nodeOrder := rng.Perm(g.NumSubtasks())
		arcOrder := rng.Perm(g.NumArcs())
		typeOrder := []int{0, 1, 2}
		if _, isRing := topo.(arch.Ring); !isRing {
			// On a ring, instance position is load-bearing, so type order is
			// part of the meaning and only the identity order is equivalent.
			typeOrder = rng.Perm(lib.NumTypes())
		}
		pg, plib := permute(g, lib, nodeOrder, arcOrder, typeOrder)
		perm, err := Prepare(Request{
			Graph: pg, Pool: arch.InstancePool(plib, permutedCounts(counts, typeOrder)),
			Topo: topo, CostCap: 9,
		})
		if err != nil {
			t.Fatalf("Prepare(permuted): %v", err)
		}
		if perm.Key() != base.Key() {
			t.Fatalf("renamed/reordered presentation changed the key (seed %d)", seed)
		}

		// -0 == 0 on the limit axis: a JSON spec can spell zero either
		// way, and both mean the same bound, so the keys must agree.
		negZero := math.Copysign(0, -1)
		dlPos, err := Prepare(Request{Graph: g, Pool: arch.InstancePool(lib, counts),
			Topo: topo, Objective: MinCost, Deadline: 0})
		if err != nil {
			t.Fatalf("Prepare(deadline 0): %v", err)
		}
		dlNeg, err := Prepare(Request{Graph: g, Pool: arch.InstancePool(lib, counts),
			Topo: topo, Objective: MinCost, Deadline: negZero})
		if err != nil {
			t.Fatalf("Prepare(deadline -0): %v", err)
		}
		if dlPos.Key() != dlNeg.Key() {
			t.Fatalf("deadline -0 and 0 produced different keys (seed %d)", seed)
		}

		// Separation under a semantic mutation. delta is clamped to a
		// positive finite perturbation (negative volumes and costs are
		// rejected at graph/library construction).
		delta := math.Abs(float64(rawDelta%1000)) / 16
		if delta == 0 || math.IsNaN(delta) {
			delta = 0.5
		}
		mutID := int(seed) % 4
		mg, mlib := g, lib
		mcounts := append([]int(nil), counts...)
		switch mutID {
		case 0: // perturb the first defined exec entry of one type
			ti := int(seed) % lib.NumTypes()
			mg, mlib = rebuildLib(g, lib, func(typ, sub int, v float64) float64 {
				if typ == ti && v != arch.NoTime {
					ti = -1 // only the first defined entry
					return v + delta
				}
				return v
			}, nil)
		case 1: // perturb one arc volume
			mg, mlib = mutateArcVolume(g, lib, int(seed)%g.NumArcs(), delta)
		case 2: // perturb one type cost
			ti := int(seed) % lib.NumTypes()
			mg, mlib = rebuildLib(g, lib, nil, func(typ int, c float64) float64 {
				if typ == ti {
					return c + delta
				}
				return c
			})
		case 3: // change one pool count
			i := int(seed) % len(mcounts)
			mcounts[i] = mcounts[i]%3 + 1
			if mcounts[i] == counts[i] {
				mcounts[i]++
			}
		}
		mut, err := Prepare(Request{
			Graph: mg, Pool: arch.InstancePool(mlib, mcounts), Topo: topo, CostCap: 9,
		})
		if err != nil {
			t.Fatalf("Prepare(mutant %d): %v", mutID, err)
		}
		if mut.Key() == base.Key() {
			t.Fatalf("semantic mutation %d (delta %g, seed %d) collided with the base key",
				mutID, delta, seed)
		}
	})
}

func identity(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// mutateArcVolume rebuilds (g, lib) verbatim except arc ai carries +delta
// volume (dodging AddArc's 0-means-1 default and no-op perturbations).
func mutateArcVolume(g *taskgraph.Graph, lib *arch.Library, ai int, delta float64) (*taskgraph.Graph, *arch.Library) {
	ng := taskgraph.New(g.Name)
	ids := make([]taskgraph.SubtaskID, g.NumSubtasks())
	for _, s := range g.Subtasks() {
		ids[s.ID] = ng.AddSubtask(s.Name)
		ng.SetMem(ids[s.ID], s.Mem)
	}
	for i := 0; i < g.NumArcs(); i++ {
		a := g.Arc(taskgraph.ArcID(i))
		spec := taskgraph.ArcSpec{Volume: a.Volume, FR: a.FR, FA: a.FA, StrictFA: true}
		if i == ai {
			spec.Volume += delta
			if spec.Volume == 0 || spec.Volume == a.Volume {
				spec.Volume = a.Volume + 0.25
			}
		}
		ng.AddArc(ids[a.Src], ids[a.Dst], spec)
	}
	ng.MustFreeze()
	nlib := rebuildLibOnly(ng, g, lib, nil, nil)
	return ng, nlib
}

// rebuildLib copies g verbatim and rebuilds lib with exec entries mapped
// through execFn(type, subtask, v) and costs through costFn(type, c).
func rebuildLib(g *taskgraph.Graph, lib *arch.Library,
	execFn func(typ, sub int, v float64) float64,
	costFn func(typ int, c float64) float64) (*taskgraph.Graph, *arch.Library) {
	ng := taskgraph.New(g.Name)
	ids := make([]taskgraph.SubtaskID, g.NumSubtasks())
	for _, s := range g.Subtasks() {
		ids[s.ID] = ng.AddSubtask(s.Name)
		ng.SetMem(ids[s.ID], s.Mem)
	}
	for i := 0; i < g.NumArcs(); i++ {
		a := g.Arc(taskgraph.ArcID(i))
		ng.AddArc(ids[a.Src], ids[a.Dst],
			taskgraph.ArcSpec{Volume: a.Volume, FR: a.FR, FA: a.FA, StrictFA: true})
	}
	ng.MustFreeze()
	return ng, rebuildLibOnly(ng, g, lib, execFn, costFn)
}

func rebuildLibOnly(ng, g *taskgraph.Graph, lib *arch.Library,
	execFn func(typ, sub int, v float64) float64,
	costFn func(typ int, c float64) float64) *arch.Library {
	nlib := arch.NewLibrary(lib.Name, lib.LinkCost, lib.RemoteDelay, lib.LocalDelay)
	nlib.MemCostPerUnit = lib.MemCostPerUnit
	for i := 0; i < lib.NumTypes(); i++ {
		typ := lib.Type(arch.TypeID(i))
		exec := make([]float64, ng.NumSubtasks())
		for j := range exec {
			v := lib.Exec(typ.ID, taskgraph.SubtaskID(j))
			if execFn != nil {
				v = execFn(i, j, v)
			}
			exec[j] = v
		}
		cost := typ.Cost
		if costFn != nil {
			cost = costFn(i, cost)
		}
		nlib.AddType(typ.Name, cost, exec)
	}
	return nlib
}
