package exact

import (
	"math"
	"time"

	"sos/internal/arch"
	"sos/internal/schedule"
	"sos/internal/taskgraph"
)

// activity is one resource-occupying interval in the disjunctive graph:
// either a subtask execution on its processor or a remote transfer on its
// links.
type activity struct {
	// event-graph node indices of its start and end
	start, end int
	// resources the activity occupies: its first nProcs processors (a
	// task's own, or under NoOverlapIO a transfer's two endpoints) and a
	// remote transfer's links (a row of the search's path table)
	procs  [2]arch.ProcID
	nProcs int
	links  []arch.LinkID
}

// pathTable memoizes topo.Path for each ordered instance pair a search
// meets. Its rows are shared and must not be modified; a Design that
// outlives the search gets paths of its own.
type pathTable struct {
	topo arch.Topology
	n    int
	rows [][]arch.LinkID // indexed d1*n + d2, filled on first use
}

func newPathTable(topo arch.Topology, n int) *pathTable {
	return &pathTable{topo: topo, n: n, rows: make([][]arch.LinkID, n*n)}
}

// path returns the links a remote transfer d1→d2 occupies (d1 != d2).
func (pt *pathTable) path(d1, d2 arch.ProcID) []arch.LinkID {
	i := int(d1)*pt.n + int(d2)
	if pt.rows[i] == nil {
		pt.rows[i] = pt.topo.Path(pt.n, d1, d2)
	}
	return pt.rows[i]
}

// disjGraph is the scheduling subproblem of one mapping. One search owns
// one disjGraph and resets it for every leaf, so its buffers are allocated
// once per search rather than once per leaf or per scheduling node.
type disjGraph struct {
	g           *taskgraph.Graph
	pool        *arch.Instances
	topo        arch.Topology
	paths       *pathTable
	noOverlapIO bool

	events    int      // event-graph nodes: 2·subtasks + 2·arcs
	base      [][]edge // static dataflow/duration edges
	baseIndeg []int    // in-degree of each event under the base edges
	acts      []activity
	// conflict pairs: indices into acts that share a resource; built only
	// once the mapping's base graph beats the cutoff
	pairs  [][2]int
	paired bool

	dur []float64 // per subtask, actual duration under the mapping
	xfd []float64 // per arc, transfer duration under the mapping

	// earliest's buffers
	indeg     []int
	times     []float64
	queue     []int
	extraFrom [][]edge

	// The branch and bound of one schedule call.
	mapping   []arch.ProcID
	extra     []edgePair // ordering edges of the current branch, a stack
	best      float64    // makespan to beat
	bestTimes []float64  // event times of the best schedule found
	found     bool
	nodes     int
	budgetHit *bool
	deadline  time.Time
}

type edge struct {
	to int
	w  float64
}

type edgePair struct{ from, to int }

// node numbering: task-start a, task-end a, xfer-start e, xfer-end e.
func (dg *disjGraph) tStart(a taskgraph.SubtaskID) int { return int(a) }
func (dg *disjGraph) tEnd(a taskgraph.SubtaskID) int {
	return dg.g.NumSubtasks() + int(a)
}
func (dg *disjGraph) xStart(e taskgraph.ArcID) int {
	return 2*dg.g.NumSubtasks() + int(e)
}
func (dg *disjGraph) xEnd(e taskgraph.ArcID) int {
	return 2*dg.g.NumSubtasks() + dg.g.NumArcs() + int(e)
}

// newDisjGraph allocates the scheduling workspace of one search.
func newDisjGraph(g *taskgraph.Graph, pool *arch.Instances, topo arch.Topology, paths *pathTable, noOverlapIO bool) *disjGraph {
	nT, nX := g.NumSubtasks(), g.NumArcs()
	events := 2*nT + 2*nX
	return &disjGraph{
		g: g, pool: pool, topo: topo, paths: paths, noOverlapIO: noOverlapIO,
		events:    events,
		base:      make([][]edge, events),
		baseIndeg: make([]int, events),
		acts:      make([]activity, 0, nT+nX),
		dur:       make([]float64, nT),
		xfd:       make([]float64, nX),
		indeg:     make([]int, events),
		times:     make([]float64, events),
		queue:     make([]int, 0, events),
		extraFrom: make([][]edge, events),
		bestTimes: make([]float64, 0, events),
	}
}

// reset loads a mapping: its base edges and its activities. The conflict
// pairs wait for pairUp.
func (dg *disjGraph) reset(mapping []arch.ProcID) {
	g, pool, topo := dg.g, dg.pool, dg.topo
	lib := pool.Library()
	n := pool.NumProcs()
	dg.mapping = mapping
	for i := range dg.base {
		dg.base[i] = dg.base[i][:0]
	}
	clear(dg.baseIndeg)

	for _, s := range g.Subtasks() {
		dg.dur[s.ID] = pool.Exec(mapping[s.ID], s.ID)
		dg.addBase(dg.tStart(s.ID), dg.tEnd(s.ID), dg.dur[s.ID])
	}
	for _, a := range g.Arcs() {
		dg.xfd[a.ID] = unitDelay(lib, topo, n, mapping[a.Src], mapping[a.Dst]) * a.Volume
		dg.addBase(dg.xStart(a.ID), dg.xEnd(a.ID), dg.xfd[a.ID])
		// Data availability: xStart >= tStart(src) + f_A·dur(src).
		dg.addBase(dg.tStart(a.Src), dg.xStart(a.ID), a.FA*dg.dur[a.Src])
		// Consumer bound: tStart(dst) >= xEnd − f_R·dur(dst).
		dg.addBase(dg.xEnd(a.ID), dg.tStart(a.Dst), -a.FR*dg.dur[a.Dst])
	}

	// Activities and their resources.
	dg.acts = dg.acts[:0]
	for _, s := range g.Subtasks() {
		dg.acts = append(dg.acts, activity{
			start: dg.tStart(s.ID), end: dg.tEnd(s.ID),
			procs: [2]arch.ProcID{mapping[s.ID]}, nProcs: 1,
		})
	}
	for _, a := range g.Arcs() {
		d1, d2 := mapping[a.Src], mapping[a.Dst]
		if d1 == d2 {
			continue // local transfers occupy no shared resource
		}
		act := activity{
			start: dg.xStart(a.ID), end: dg.xEnd(a.ID),
			links: dg.paths.path(d1, d2),
		}
		if dg.noOverlapIO {
			// §5 variant: without I/O modules the transfer also occupies
			// both endpoint processors, and can neither overlap its own
			// producer's execution nor its consumer's.
			act.procs, act.nProcs = [2]arch.ProcID{d1, d2}, 2
			dg.addBase(dg.tEnd(a.Src), dg.xStart(a.ID), 0)
			dg.addBase(dg.xEnd(a.ID), dg.tStart(a.Dst), 0)
		}
		dg.acts = append(dg.acts, act)
	}
	dg.pairs = dg.pairs[:0]
	dg.paired = false
}

// unitDelay is the time to move one unit of data from instance d1 to d2:
// D_CL on one instance, the topology's per-unit delay across two.
func unitDelay(lib *arch.Library, topo arch.Topology, n int, d1, d2 arch.ProcID) float64 {
	if d1 == d2 {
		return lib.LocalDelay
	}
	return topo.DelayPerUnit(lib, n, d1, d2)
}

func (dg *disjGraph) addBase(from, to int, w float64) {
	dg.base[from] = append(dg.base[from], edge{to, w})
	dg.baseIndeg[to]++
}

// pairUp lists the conflict pairs: any two activities sharing a processor
// or a link.
func (dg *disjGraph) pairUp() {
	for i := 0; i < len(dg.acts); i++ {
		for j := i + 1; j < len(dg.acts); j++ {
			if sharesResource(&dg.acts[i], &dg.acts[j]) {
				dg.pairs = append(dg.pairs, [2]int{i, j})
			}
		}
	}
	dg.paired = true
}

func sharesResource(a, b *activity) bool {
	for _, p := range a.procs[:a.nProcs] {
		for _, q := range b.procs[:b.nProcs] {
			if p == q {
				return true
			}
		}
	}
	for _, l := range a.links {
		for _, m := range b.links {
			if l == m {
				return true
			}
		}
	}
	return false
}

// earliest computes the earliest event times under the base edges plus the
// current branch's ordering edges, or nil if the combined graph is cyclic.
// The returned slice is the workspace's and is overwritten by the next
// call.
func (dg *disjGraph) earliest() []float64 {
	indeg, times, extraFrom := dg.indeg, dg.times, dg.extraFrom
	copy(indeg, dg.baseIndeg)
	for _, e := range dg.extra {
		indeg[e.to]++
		extraFrom[e.from] = append(extraFrom[e.from], edge{e.to, 0})
	}
	clear(times)
	queue := dg.queue[:0]
	for i, d := range indeg {
		if d == 0 {
			queue = append(queue, i)
		}
	}
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, es := range [2][]edge{dg.base[v], extraFrom[v]} {
			for _, e := range es {
				if t := times[v] + e.w; t > times[e.to] {
					times[e.to] = t
				}
				indeg[e.to]--
				if indeg[e.to] == 0 {
					queue = append(queue, e.to)
				}
			}
		}
	}
	dg.queue = queue
	for _, e := range dg.extra {
		extraFrom[e.from] = extraFrom[e.from][:0]
	}
	if len(queue) != dg.events {
		return nil
	}
	return times
}

// schedule finds the minimum-makespan schedule of a fixed mapping by
// disjunctive branch and bound. Only schedules with makespan strictly below
// cutoff are of interest: anything at or above it is pruned and nil is
// returned if no schedule beats the cutoff. The second return is the number
// of B&B nodes used. budgetHit is shared with the outer search so time
// exhaustion propagates.
func (dg *disjGraph) schedule(mapping []arch.ProcID, cutoff float64, budgetHit *bool, deadline time.Time) (*schedule.Design, int) {
	dg.reset(mapping)
	dg.extra = dg.extra[:0]
	dg.best, dg.found, dg.nodes = cutoff, false, 0
	dg.budgetHit, dg.deadline = budgetHit, deadline
	dg.branch()
	if !dg.found {
		return nil, dg.nodes
	}
	return dg.buildDesign(dg.bestTimes), dg.nodes
}

// branch explores one node of the scheduling B&B: the base graph plus the
// ordering edges on dg.extra.
func (dg *disjGraph) branch() {
	if *dg.budgetHit {
		return
	}
	dg.nodes++
	if dg.nodes%256 == 0 && !dg.deadline.IsZero() && time.Now().After(dg.deadline) {
		*dg.budgetHit = true
		return
	}
	times := dg.earliest()
	if times == nil {
		return // cyclic ordering
	}
	mk := 0.0
	for _, s := range dg.g.Subtasks() {
		if t := times[dg.tEnd(s.ID)]; t > mk {
			mk = t
		}
	}
	if mk >= dg.best-1e-9 {
		return // bound
	}
	if !dg.paired {
		// Bound before pairs: a mapping whose base graph alone reaches the
		// cutoff is pruned above without its O(activities²) pair scan.
		dg.pairUp()
	}
	// Find the earliest unresolved resource conflict.
	ci, cj := -1, -1
	bestKey := math.Inf(1)
	for _, pr := range dg.pairs {
		a, b := &dg.acts[pr[0]], &dg.acts[pr[1]]
		s1, e1 := times[a.start], times[a.end]
		s2, e2 := times[b.start], times[b.end]
		if e1-s1 <= 1e-12 || e2-s2 <= 1e-12 {
			continue // zero-length activities never contend
		}
		if s1 < e2-1e-9 && s2 < e1-1e-9 {
			key := math.Min(s1, s2)
			if key < bestKey {
				bestKey = key
				ci, cj = pr[0], pr[1]
			}
		}
	}
	if ci < 0 {
		// Conflict-free: feasible schedule.
		dg.best = mk
		dg.bestTimes = append(dg.bestTimes[:0], times...)
		dg.found = true
		return
	}
	a, b := &dg.acts[ci], &dg.acts[cj]
	// Branch: a before b, then b before a. Explore the branch whose
	// activity currently starts earlier first.
	first, second := edgePair{a.end, b.start}, edgePair{b.end, a.start}
	if times[b.start] < times[a.start] {
		first, second = second, first
	}
	dg.extra = append(dg.extra, first)
	dg.branch()
	dg.extra[len(dg.extra)-1] = second
	dg.branch()
	dg.extra = dg.extra[:len(dg.extra)-1]
}

// buildDesign converts event times into a schedule.Design.
func (dg *disjGraph) buildDesign(times []float64) *schedule.Design {
	g := dg.g
	n := dg.pool.NumProcs()
	d := &schedule.Design{Graph: g, Pool: dg.pool, Topo: dg.topo}
	d.Assignments = make([]schedule.Assignment, g.NumSubtasks())
	for _, s := range g.Subtasks() {
		d.Assignments[s.ID] = schedule.Assignment{
			Task:  s.ID,
			Proc:  dg.mapping[s.ID],
			Start: times[dg.tStart(s.ID)],
			End:   times[dg.tEnd(s.ID)],
		}
	}
	d.Transfers = make([]schedule.Transfer, g.NumArcs())
	for _, a := range g.Arcs() {
		d1, d2 := dg.mapping[a.Src], dg.mapping[a.Dst]
		tr := schedule.Transfer{
			Arc:    a.ID,
			From:   d1,
			To:     d2,
			Remote: d1 != d2,
			Start:  times[dg.xStart(a.ID)],
			End:    times[dg.xEnd(a.ID)],
		}
		if tr.Remote {
			tr.Links = dg.topo.Path(n, d1, d2)
		}
		d.Transfers[a.ID] = tr
	}
	d.DeriveResources()
	return d
}

// OptimalSchedule exposes the disjunctive scheduler for a fixed mapping:
// the minimum-makespan schedule honoring every SOS correctness rule.
// Returns nil if the mapping admits no schedule (it always does for a DAG).
func OptimalSchedule(g *taskgraph.Graph, pool *arch.Instances, topo arch.Topology, mapping []arch.ProcID) *schedule.Design {
	var budget bool
	dg := newDisjGraph(g, pool, topo, newPathTable(topo, pool.NumProcs()), false)
	d, _ := dg.schedule(mapping, math.Inf(1), &budget, time.Time{})
	return d
}
