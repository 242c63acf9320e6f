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
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"slices"

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

	// Each round writes the next colors into the spare buffer, and the
	// two buffers swap.
	nodeNext, typeNext := make([]uint64, n), make([]uint64, m)
	var sc refineScratch
	refine := func() {
		prev := -1
		for round := 0; round <= n+m+1; round++ {
			sc.refineNodes(nodeNext, g, lib, nodeC, typeC)
			nodeC, nodeNext = nodeNext, nodeC
			if !ring {
				sc.refineTypes(typeNext, g, lib, nodeC, typeC)
				typeC, typeNext = typeNext, typeC
			}
			if d := sc.distinct(nodeC) + sc.distinct(typeC); d == prev {
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
		if i := sc.firstTied(nodeC); i >= 0 {
			pin++
			nodeC[i] = hashVals(nodeC[i], 0xF1A9, pin)
			refine()
			continue
		}
		if !ring {
			if t := sc.firstTied(typeC); t >= 0 {
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
	slices.SortFunc(c.nodes, func(a, b taskgraph.SubtaskID) int {
		return cmp.Or(cmp.Compare(nodeC[a], nodeC[b]), cmp.Compare(a, b))
	})
	c.types = make([]arch.TypeID, m)
	for i := range c.types {
		c.types[i] = arch.TypeID(i)
	}
	if !ring {
		slices.SortFunc(c.types, func(a, b arch.TypeID) int {
			return cmp.Or(cmp.Compare(typeC[a], typeC[b]), cmp.Compare(a, b))
		})
	}

	// Serialize the full problem under the canonical order and hash it.
	cert := make([]byte, 0, 64+8*(m*(n+2)+n+5*g.NumArcs()+12))
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
	slices.SortFunc(rows, func(a, b arcRow) int {
		return cmp.Or(cmp.Compare(a.src, b.src), cmp.Compare(a.dst, b.dst),
			cmp.Compare(a.vol, b.vol), cmp.Compare(a.fr, b.fr), cmp.Compare(a.fa, b.fa))
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
	var keyed [len(f) + 8]byte
	copy(keyed[:], f[:])
	binary.BigEndian.PutUint64(keyed[len(f):], normBits(limit))
	return sha256.Sum256(keyed[:])
}

// refineScratch holds the buffers that every refinement round of one
// canonicalization reuses: a color's signature, one multiset of it, and
// a sorted copy of a color vector.
type refineScratch struct {
	sig, ms, sorted []uint64
}

// refineNodes computes one refinement round of the node colors into out:
// each node's new color folds its old color with the sorted multisets of
// (type color, exec time), (source color, arc attributes) over in-arcs,
// and (destination color, arc attributes) over out-arcs.
func (sc *refineScratch) refineNodes(out []uint64, g *taskgraph.Graph, lib *arch.Library, nodeC, typeC []uint64) {
	sig, ms := sc.sig, sc.ms
	for _, s := range g.Subtasks() {
		sig = append(sig[:0], nodeC[s.ID])
		ms = ms[:0]
		for _, t := range lib.Types() {
			ms = append(ms, hashVals(typeC[t.ID], normBits(lib.Exec(t.ID, s.ID))))
		}
		sig = appendSorted(sig, ms)
		ms = ms[:0]
		for _, aid := range g.In(s.ID) {
			a := g.Arc(aid)
			ms = append(ms, hashVals(0x1234AB, nodeC[a.Src], normBits(a.Volume),
				normBits(a.FR), normBits(a.FA)))
		}
		sig = appendSorted(sig, ms)
		ms = ms[:0]
		for _, aid := range g.Out(s.ID) {
			a := g.Arc(aid)
			ms = append(ms, hashVals(0x5678CD, nodeC[a.Dst], normBits(a.Volume),
				normBits(a.FR), normBits(a.FA)))
		}
		sig = appendSorted(sig, ms)
		out[s.ID] = hashVals(sig...)
	}
	sc.sig, sc.ms = sig, ms
}

// refineTypes folds each type's color, into out, with the sorted multiset
// of (node color, exec time) pairs over all subtasks.
func (sc *refineScratch) refineTypes(out []uint64, g *taskgraph.Graph, lib *arch.Library, nodeC, typeC []uint64) {
	sig, ms := sc.sig, sc.ms
	for _, t := range lib.Types() {
		sig = append(sig[:0], typeC[t.ID])
		ms = ms[:0]
		for _, s := range g.Subtasks() {
			ms = append(ms, hashVals(nodeC[s.ID], normBits(lib.Exec(t.ID, s.ID))))
		}
		sig = appendSorted(sig, ms)
		out[t.ID] = hashVals(sig...)
	}
	sc.sig, sc.ms = sig, ms
}

// FNV-1a's 64-bit parameters.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// hashVals is the internal color hash: FNV-1a over the big-endian bytes
// of each word, computed inline. Collisions here can only cost a cache
// miss, never a wrong hit: the key hashes the full certificate, not the
// colors.
func hashVals(vs ...uint64) uint64 {
	h := uint64(fnvOffset64)
	for _, v := range vs {
		for shift := 56; shift >= 0; shift -= 8 {
			h ^= (v >> shift) & 0xff
			h *= fnvPrime64
		}
	}
	return h
}

func appendSorted(dst, vs []uint64) []uint64 {
	slices.Sort(vs)
	return append(dst, vs...)
}

// sortedCopy returns a sorted copy of cs in the scratch's buffer.
func (sc *refineScratch) sortedCopy(cs []uint64) []uint64 {
	sc.sorted = append(sc.sorted[:0], cs...)
	slices.Sort(sc.sorted)
	return sc.sorted
}

// distinct counts the distinct colors in cs.
func (sc *refineScratch) distinct(cs []uint64) int {
	return len(slices.Compact(sc.sortedCopy(cs)))
}

// firstTied returns the input-order-first member of the smallest-colored
// class holding more than one element, or -1 if all colors are distinct.
func (sc *refineScratch) firstTied(cs []uint64) int {
	sorted := sc.sortedCopy(cs)
	for i := 1; i < len(sorted); i++ {
		if sorted[i] == sorted[i-1] {
			return slices.Index(cs, sorted[i])
		}
	}
	return -1
}
