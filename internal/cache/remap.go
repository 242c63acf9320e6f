package cache

import (
	"fmt"
	"math"
	"sort"

	"sos/internal/arch"
	"sos/internal/schedule"
	"sos/internal/taskgraph"
)

// remapDesign translates a cached entry's design into the probe's frame:
// same canonical key family means the two problems are isomorphic (equal
// certificates serialize the identical structure), so composing the two
// canonical orders yields node/type/proc bijections. The rebuilt design
// references the probe's own Graph, Pool, and Topo, and is re-derived
// and re-validated before being served; any failure is reported as an
// error and the caller treats it as a miss.
func remapDesign(e *entry, p *Probe) (*schedule.Design, error) {
	src, from, fromReq := e.design, e.canon, &e.req
	if src == nil {
		return nil, fmt.Errorf("cache: no design to remap")
	}
	// Fast path: the probe references the very same graph and pool (the
	// common repeat-traffic case) and an equal topology — every topology
	// here passed topoParams, so it is one of arch's comparable values.
	// Serve the stored design as-is; designs are immutable by convention
	// once cached.
	if src.Graph == p.Req.Graph && src.Pool == p.Req.Pool && src.Topo == p.Req.Topo {
		return src, nil
	}

	to := p.canon
	if len(from.nodes) != len(to.nodes) || len(from.types) != len(to.types) {
		return nil, fmt.Errorf("cache: canonical shape mismatch")
	}

	// nodeMap[srcID] = dstID via shared canonical position.
	nodeMap := make([]taskgraph.SubtaskID, len(from.nodes))
	for pos := range from.nodes {
		nodeMap[from.nodes[pos]] = to.nodes[pos]
	}
	typeMap := make([]arch.TypeID, len(from.types))
	for pos := range from.types {
		typeMap[from.types[pos]] = to.types[pos]
	}

	// procMap: a source proc (type T, copy k) maps to the destination
	// proc with (typeMap[T], copy k). Copy indices are interchangeable
	// within a type (that is the symmetry the key collapses) except on a
	// ring, where the certificate pinned the type order to library order,
	// so positions still line up.
	dstByType := make(map[arch.TypeID][]arch.ProcID)
	for _, pr := range p.Req.Pool.Procs() {
		dstByType[pr.Type] = append(dstByType[pr.Type], pr.ID)
	}
	for _, ps := range dstByType {
		sort.Slice(ps, func(i, j int) bool { return ps[i] < ps[j] })
	}
	srcPool := fromReq.Pool
	procMap := make(map[arch.ProcID]arch.ProcID, len(src.Procs))
	for _, pid := range src.Procs {
		pr := srcPool.Proc(pid)
		cands := dstByType[typeMap[pr.Type]]
		if pr.Index >= len(cands) {
			return nil, fmt.Errorf("cache: proc copy %d out of range for type", pr.Index)
		}
		procMap[pid] = cands[pr.Index]
	}

	// arcMap: arcs are matched by (canonical src pos, canonical dst pos,
	// attribute bits); parallel identical arcs pair up by occurrence
	// order, which is sound because they are interchangeable.
	type arcSig struct {
		src, dst    int
		vol, fr, fa uint64
	}
	fromPos := make([]int, len(from.nodes))
	for pos, id := range from.nodes {
		fromPos[id] = pos
	}
	toPos := make([]int, len(to.nodes))
	for pos, id := range to.nodes {
		toPos[id] = pos
	}
	sig := func(a taskgraph.Arc, pos []int) arcSig {
		return arcSig{
			src: pos[a.Src], dst: pos[a.Dst],
			vol: math.Float64bits(a.Volume),
			fr:  math.Float64bits(a.FR),
			fa:  math.Float64bits(a.FA),
		}
	}
	dstArcs := make(map[arcSig][]taskgraph.ArcID)
	for _, a := range p.Req.Graph.Arcs() {
		s := sig(a, toPos)
		dstArcs[s] = append(dstArcs[s], a.ID)
	}
	srcG, dstG := fromReq.Graph, p.Req.Graph
	if srcG.NumArcs() != dstG.NumArcs() || srcG.NumSubtasks() != dstG.NumSubtasks() {
		return nil, fmt.Errorf("cache: graph shape mismatch")
	}
	arcMap := make([]taskgraph.ArcID, srcG.NumArcs())
	for _, a := range srcG.Arcs() {
		s := sig(a, fromPos)
		cands := dstArcs[s]
		if len(cands) == 0 {
			return nil, fmt.Errorf("cache: unmatched arc")
		}
		arcMap[a.ID] = cands[0]
		dstArcs[s] = cands[1:]
	}

	n := p.Req.Pool.NumProcs()
	out := &schedule.Design{
		Graph:       dstG,
		Pool:        p.Req.Pool,
		Topo:        p.Req.Topo,
		Assignments: make([]schedule.Assignment, len(src.Assignments)),
		Transfers:   make([]schedule.Transfer, len(src.Transfers)),
	}
	for _, as := range src.Assignments {
		na := schedule.Assignment{
			Task:  nodeMap[as.Task],
			Proc:  procMap[as.Proc],
			Start: as.Start,
			End:   as.End,
		}
		out.Assignments[na.Task] = na
	}
	for _, tr := range src.Transfers {
		nt := schedule.Transfer{
			Arc:    arcMap[tr.Arc],
			From:   procMap[tr.From],
			To:     procMap[tr.To],
			Remote: tr.Remote,
			Start:  tr.Start,
			End:    tr.End,
		}
		if nt.Remote {
			nt.Links = p.Req.Topo.Path(n, nt.From, nt.To)
		}
		out.Transfers[nt.Arc] = nt
	}
	out.DeriveResources()
	if err := out.Validate(&schedule.ValidateOptions{NoOverlapIO: p.Req.NoOverlapIO}); err != nil {
		return nil, fmt.Errorf("cache: remapped design invalid: %w", err)
	}
	return out, nil
}
