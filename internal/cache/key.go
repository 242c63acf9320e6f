// Package cache is the cross-request result cache of the synthesis
// stack: a canonical content hash over (task graph, processor library,
// instance pool, topology, objective) that deliberately collides
// specifications differing only in node order, node names, or same-type
// instance numbering; a sharded in-memory LRU of *proved* results with
// single-flight deduplication of concurrent identical requests; and an
// optional JSONL spill for warm restarts, re-checked on load. Swept
// Pareto frontiers are kept as the same proofs, one per chain cap
// (frontier.go).
//
// Soundness rests on two pillars. First, the key is the SHA-256 of a full
// canonical serialization of the problem — two specs share a key only if
// the serializations are equal, and equal serializations exhibit an
// isomorphism between the problems (the certificate lists every node, arc,
// type, count, and parameter under the canonical order). Second, a cached
// entry is only ever served as a result when its certificate is a proof
// (StatusOptimal or StatusInfeasible) valid at the requested cap, via the
// cover-down rule; anything weaker is offered solely as an *untrusted*
// warm incumbent that downstream engines feasibility-check before use.
package cache

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sort"

	"sos/internal/arch"
	"sos/internal/taskgraph"
)

// Key identifies one exact synthesis problem (structure + objective +
// cap/deadline) up to the canonicalizer's equivalences.
type Key [sha256.Size]byte

// FamilyKey identifies a problem family: everything but the cost cap /
// deadline. Entries of one family differ only in how tight the ε-bound
// is, which is what makes cover-down and near-miss reuse sound.
type FamilyKey [sha256.Size]byte

func (k Key) String() string       { return fmt.Sprintf("%x", k[:8]) }
func (f FamilyKey) String() string { return fmt.Sprintf("%x", f[:8]) }

// Objective mirrors the facade's objective without importing it.
type Objective int

// Objectives.
const (
	// MinMakespan minimizes completion time under Request.CostCap.
	MinMakespan Objective = iota
	// MinCost minimizes system cost under Request.Deadline.
	MinCost
)

// Request is the cache's view of one synthesis problem. Engine choice,
// budgets, and solver tuning (LP kernel, cuts, presolve) are deliberately
// absent: a proof is a proof regardless of which exact engine produced it
// or how long it was allowed to run.
type Request struct {
	Graph       *taskgraph.Graph
	Pool        *arch.Instances
	Topo        arch.Topology
	Objective   Objective
	CostCap     float64 // MinMakespan bound; <= 0 means uncapped
	Deadline    float64 // MinCost bound
	Memory      bool    // §5 memory-cost extension
	NoOverlapIO bool    // §5 no-I/O-module variant
}

// limit returns the request's ε-bound on the canonical axis: the cost cap
// (uncapped normalized to +Inf) under MinMakespan, the deadline under
// MinCost. Entries in a family are ordered and covered along this axis.
func (r *Request) limit() float64 {
	if r.Objective == MinCost {
		return r.Deadline
	}
	if r.CostCap <= 0 {
		return math.Inf(1)
	}
	return r.CostCap
}

// normBits returns the IEEE-754 bit pattern of v with negative zero
// collapsed onto positive zero. Every float that reaches a color, the
// certificate, or the key hash goes through this one helper: -0 and 0 are
// the same number, and a JSON spec can legally carry either spelling, so
// letting raw Float64bits distinguish them would make a spec with cap or
// arc field -0 miss the cache entry for 0.
func normBits(v float64) uint64 {
	if v == 0 {
		v = 0 // collapses -0
	}
	return math.Float64bits(v)
}

// canon is the canonicalization of one request: the family and full keys
// plus the canonical orders needed to translate designs between
// isomorphic problem instances.
type canon struct {
	family FamilyKey
	key    Key
	limit  float64

	nodes []taskgraph.SubtaskID // canonical position -> subtask ID
	types []arch.TypeID         // canonical position -> type ID
	ring  bool
}

// topoParams classifies the topology for hashing: its name, its one cost
// parameter (bus / shared-memory module cost), and whether instance
// positions are semantically significant (ring), which disables the
// same-type symmetry collapse exactly as the exact engine does.
func topoParams(t arch.Topology) (name string, cost float64, ring bool, err error) {
	switch tt := t.(type) {
	case arch.PointToPoint:
		return "p2p", 0, false, nil
	case arch.Bus:
		return "bus", tt.Cost, false, nil
	case arch.SharedMemory:
		return "shmem", tt.Cost, false, nil
	case arch.Ring:
		return "ring", 0, true, nil
	default:
		return "", 0, false, fmt.Errorf("cache: uncacheable topology %T", t)
	}
}

// canonicalize computes the request's canonical labeling and keys.
//
// The labeling is a joint color refinement over subtasks and processor
// types (their invariants are interdependent: a node's signature includes
// its exec times per type, a type's includes its exec times per node),
// followed by individualization of residual ties. Initial colors come
// from order-free content — node memory footprint, type cost and pool
// count — and each round folds in the sorted multiset of attributed
// neighbors, so names, insertion order, and same-type instance numbering
// never reach the hash. Under a ring topology type colors are pinned to
// their library positions instead (ring slots make instance position
// semantic, mirroring internal/exact's symmetry rule).
//
// Residual ties after a stable refinement are broken by individualizing
// one member of the first tied class and re-refining. When the tied class
// is an orbit of the problem's automorphism group — which is what a
// stable attributed refinement leaves on every workload shape this stack
// generates — any choice yields the identical certificate, so the key is
// invariant under input permutation. If a pathological instance ties
// non-symmetric nodes, the certificate may differ between isomorphic
// presentations: a cache miss, never a wrong hit, because the key hashes
// the full serialization, not the colors.
func canonicalize(req *Request) (*canon, error) {
	g, pool := req.Graph, req.Pool
	lib := pool.Library()
	topoName, topoCost, ring, err := topoParams(req.Topo)
	if err != nil {
		return nil, err
	}
	n, m := g.NumSubtasks(), lib.NumTypes()
	counts := make([]int, m)
	for _, p := range pool.Procs() {
		counts[p.Type]++
	}

	nodeC := make([]uint64, n)
	typeC := make([]uint64, m)
	for _, s := range g.Subtasks() {
		nodeC[s.ID] = hashVals(0xA11CE, normBits(s.Mem))
	}
	for _, t := range lib.Types() {
		if ring {
			// Positions are semantic on a ring: pin each type to its slot.
			typeC[t.ID] = hashVals(0xB0B, uint64(t.ID))
		} else {
			typeC[t.ID] = hashVals(0xB0B, normBits(t.Cost), uint64(counts[t.ID]))
		}
	}

	refine := func() {
		prev := -1
		for round := 0; round <= n+m+1; round++ {
			nodeC = refineNodes(g, lib, nodeC, typeC)
			if !ring {
				typeC = refineTypes(g, lib, nodeC, typeC)
			}
			if d := distinct(nodeC) + distinct(typeC); d == prev {
				return
			} else {
				prev = d
			}
		}
	}
	refine()

	// Individualize residual ties until every color class is a singleton.
	// Pin one member per round (the input-order-first member of the
	// smallest-colored tied class) and re-refine; each round strictly
	// shrinks some class, so this terminates within n+m rounds.
	pin := uint64(0)
	for {
		if i := firstTied(nodeC); i >= 0 {
			pin++
			nodeC[i] = hashVals(nodeC[i], 0xF1A9, pin)
			refine()
			continue
		}
		if !ring {
			if t := firstTied(typeC); t >= 0 {
				pin++
				typeC[t] = hashVals(typeC[t], 0xF1A9, pin)
				refine()
				continue
			}
		}
		break
	}

	c := &canon{limit: req.limit(), ring: ring}
	c.nodes = make([]taskgraph.SubtaskID, n)
	for i := range c.nodes {
		c.nodes[i] = taskgraph.SubtaskID(i)
	}
	sort.Slice(c.nodes, func(a, b int) bool {
		ca, cb := nodeC[c.nodes[a]], nodeC[c.nodes[b]]
		if ca != cb {
			return ca < cb
		}
		return c.nodes[a] < c.nodes[b]
	})
	c.types = make([]arch.TypeID, m)
	for i := range c.types {
		c.types[i] = arch.TypeID(i)
	}
	if !ring {
		sort.Slice(c.types, func(a, b int) bool {
			ca, cb := typeC[c.types[a]], typeC[c.types[b]]
			if ca != cb {
				return ca < cb
			}
			return c.types[a] < c.types[b]
		})
	}

	// Serialize the full problem under the canonical order and hash it.
	var cert []byte
	app64 := func(v uint64) { cert = binary.BigEndian.AppendUint64(cert, v) }
	appF := func(v float64) { app64(normBits(v)) }
	cert = append(cert, "sos-cache-v1|"...)
	cert = append(cert, topoName...)
	appF(topoCost)
	appF(lib.LinkCost)
	appF(lib.RemoteDelay)
	appF(lib.LocalDelay)
	appF(lib.MemCostPerUnit)
	var flags uint64
	if req.Memory {
		flags |= 1
	}
	if req.NoOverlapIO {
		flags |= 2
	}
	app64(flags)
	app64(uint64(req.Objective))

	nodePos := make([]int, n)
	for pos, id := range c.nodes {
		nodePos[id] = pos
	}
	app64(uint64(m))
	for _, t := range c.types {
		appF(lib.Type(t).Cost)
		app64(uint64(counts[t]))
		for _, id := range c.nodes {
			appF(lib.Exec(t, id)) // +Inf encodes "incapable" stably
		}
	}
	app64(uint64(n))
	for _, id := range c.nodes {
		appF(g.Subtask(id).Mem)
	}
	type arcRow struct {
		src, dst    int
		vol, fr, fa uint64
	}
	rows := make([]arcRow, 0, g.NumArcs())
	for _, a := range g.Arcs() {
		rows = append(rows, arcRow{
			src: nodePos[a.Src], dst: nodePos[a.Dst],
			vol: normBits(a.Volume),
			fr:  normBits(a.FR),
			fa:  normBits(a.FA),
		})
	}
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		if a.src != b.src {
			return a.src < b.src
		}
		if a.dst != b.dst {
			return a.dst < b.dst
		}
		if a.vol != b.vol {
			return a.vol < b.vol
		}
		if a.fr != b.fr {
			return a.fr < b.fr
		}
		return a.fa < b.fa
	})
	app64(uint64(len(rows)))
	for _, r := range rows {
		app64(uint64(r.src))
		app64(uint64(r.dst))
		app64(r.vol)
		app64(r.fr)
		app64(r.fa)
	}

	c.family = sha256.Sum256(cert)
	c.key = limitKey(c.family, c.limit)
	return c, nil
}

// limitKey is the full key of the family's proof at bound limit.
func limitKey(f FamilyKey, limit float64) Key {
	var keyed []byte
	keyed = append(keyed, f[:]...)
	keyed = binary.BigEndian.AppendUint64(keyed, normBits(limit))
	return sha256.Sum256(keyed)
}

// refineNodes computes one refinement round of the node colors: each
// node's new color folds its old color with the sorted multisets of
// (type color, exec time), (source color, arc attributes) over in-arcs,
// and (destination color, arc attributes) over out-arcs.
func refineNodes(g *taskgraph.Graph, lib *arch.Library, nodeC, typeC []uint64) []uint64 {
	out := make([]uint64, len(nodeC))
	var sig []uint64
	for _, s := range g.Subtasks() {
		sig = sig[:0]
		sig = append(sig, nodeC[s.ID])
		var exec []uint64
		for _, t := range lib.Types() {
			exec = append(exec, hashVals(typeC[t.ID], normBits(lib.Exec(t.ID, s.ID))))
		}
		sig = appendSorted(sig, exec)
		var in []uint64
		for _, aid := range g.In(s.ID) {
			a := g.Arc(aid)
			in = append(in, hashVals(0x1234AB, nodeC[a.Src], normBits(a.Volume),
				normBits(a.FR), normBits(a.FA)))
		}
		sig = appendSorted(sig, in)
		var outArcs []uint64
		for _, aid := range g.Out(s.ID) {
			a := g.Arc(aid)
			outArcs = append(outArcs, hashVals(0x5678CD, nodeC[a.Dst], normBits(a.Volume),
				normBits(a.FR), normBits(a.FA)))
		}
		sig = appendSorted(sig, outArcs)
		out[s.ID] = hashVals(sig...)
	}
	return out
}

// refineTypes folds each type's color with the sorted multiset of
// (node color, exec time) pairs over all subtasks.
func refineTypes(g *taskgraph.Graph, lib *arch.Library, nodeC, typeC []uint64) []uint64 {
	out := make([]uint64, len(typeC))
	for _, t := range lib.Types() {
		sig := []uint64{typeC[t.ID]}
		var exec []uint64
		for _, s := range g.Subtasks() {
			exec = append(exec, hashVals(nodeC[s.ID], normBits(lib.Exec(t.ID, s.ID))))
		}
		sig = appendSorted(sig, exec)
		out[t.ID] = hashVals(sig...)
	}
	return out
}

// hashVals is the internal color hash (FNV-1a over big-endian words).
// Collisions here can only cost a cache miss, never a wrong hit: the key
// hashes the full certificate, not the colors.
func hashVals(vs ...uint64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range vs {
		binary.BigEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	return h.Sum64()
}

func appendSorted(dst, vs []uint64) []uint64 {
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	return append(dst, vs...)
}

func distinct(cs []uint64) int {
	seen := make(map[uint64]struct{}, len(cs))
	for _, c := range cs {
		seen[c] = struct{}{}
	}
	return len(seen)
}

// firstTied returns the input-order-first member of the smallest-colored
// class holding more than one element, or -1 if all colors are distinct.
func firstTied(cs []uint64) int {
	count := make(map[uint64]int, len(cs))
	for _, c := range cs {
		count[c]++
	}
	best, bestColor := -1, uint64(0)
	for i, c := range cs {
		if count[c] > 1 && (best < 0 || c < bestColor) {
			best, bestColor = i, c
		}
	}
	return best
}
