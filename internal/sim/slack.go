package sim

import (
	"fmt"
	"sort"
	"strings"

	"sos/internal/schedule"
	"sos/internal/taskgraph"
)

// SlackReport describes how much each activity of a schedule can slip
// without extending the makespan, holding the mapping and all resource
// orders fixed. Activities with zero slack form the schedule's critical
// path(s) — the places a designer must attack to go faster.
type SlackReport struct {
	Makespan float64
	// TaskSlack maps each subtask to its total slack.
	TaskSlack map[taskgraph.SubtaskID]float64
	// TransferSlack maps each arc to its transfer's total slack.
	TransferSlack map[taskgraph.ArcID]float64
	// Critical lists the zero-slack subtasks in start order.
	Critical []taskgraph.SubtaskID
}

// Slack computes the report from the design's event graph: earliest times
// via a forward pass (as in SelfTimed) and latest times via a backward
// pass against the self-timed makespan.
func Slack(d *schedule.Design) (*SlackReport, error) {
	g := d.Graph
	nT, nX := g.NumSubtasks(), g.NumArcs()
	adj, err := eventGraph(d)
	if err != nil {
		return nil, err
	}
	total := 2*nT + 2*nX
	earliest, order, err := longestPath(adj)
	if err != nil {
		return nil, err
	}
	makespan := 0.0
	for a := 0; a < nT; a++ {
		if t := earliest[nT+a]; t > makespan {
			makespan = t
		}
	}

	// Backward pass: latest[v] = min over outgoing edges (latest[to] − w),
	// anchored at makespan for the sinks.
	latest := make([]float64, total)
	for i := range latest {
		latest[i] = makespan
	}
	// Process in reverse topological order.
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		for _, e := range adj[v] {
			if t := latest[e.to] - e.w; t < latest[v] {
				latest[v] = t
			}
		}
	}

	rep := &SlackReport{
		Makespan:      makespan,
		TaskSlack:     map[taskgraph.SubtaskID]float64{},
		TransferSlack: map[taskgraph.ArcID]float64{},
	}
	for a := 0; a < nT; a++ {
		s := latest[a] - earliest[a]
		if s < 0 {
			s = 0
		}
		rep.TaskSlack[taskgraph.SubtaskID(a)] = s
		if s < 1e-9 {
			rep.Critical = append(rep.Critical, taskgraph.SubtaskID(a))
		}
	}
	sort.Slice(rep.Critical, func(i, j int) bool {
		return d.Assignments[rep.Critical[i]].Start < d.Assignments[rep.Critical[j]].Start
	})
	for e := 0; e < nX; e++ {
		s := latest[2*nT+e] - earliest[2*nT+e]
		if s < 0 {
			s = 0
		}
		rep.TransferSlack[taskgraph.ArcID(e)] = s
	}
	return rep, nil
}

// String renders the report.
func (r *SlackReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "makespan %g; critical subtasks:", r.Makespan)
	for _, t := range r.Critical {
		fmt.Fprintf(&b, " S%d", int(t)+1)
	}
	b.WriteString("\n")
	var tasks []taskgraph.SubtaskID
	for t := range r.TaskSlack {
		tasks = append(tasks, t)
	}
	sort.Slice(tasks, func(i, j int) bool { return tasks[i] < tasks[j] })
	for _, t := range tasks {
		fmt.Fprintf(&b, "  S%-3d slack %g\n", int(t)+1, r.TaskSlack[t])
	}
	return b.String()
}

// eventGraph builds the same event graph SelfTimed uses (durations,
// dataflow, resource orders) and returns its adjacency.
func eventGraph(d *schedule.Design) ([][]edgeTo, error) {
	g := d.Graph
	nT, nX := g.NumSubtasks(), g.NumArcs()
	total := 2*nT + 2*nX
	adj := make([][]edgeTo, total)
	add := func(from, to int, w float64) { adj[from] = append(adj[from], edgeTo{to, w}) }
	tStart := func(a taskgraph.SubtaskID) int { return int(a) }
	tEnd := func(a taskgraph.SubtaskID) int { return nT + int(a) }
	xStart := func(e taskgraph.ArcID) int { return 2*nT + int(e) }
	xEnd := func(e taskgraph.ArcID) int { return 2*nT + nX + int(e) }

	for _, as := range d.Assignments {
		add(tStart(as.Task), tEnd(as.Task), as.End-as.Start)
	}
	for _, a := range g.Arcs() {
		tr := d.Transfers[a.ID]
		add(xStart(a.ID), xEnd(a.ID), tr.End-tr.Start)
		src := d.Assignments[a.Src]
		add(tStart(a.Src), xStart(a.ID), a.FA*(src.End-src.Start))
		dst := d.Assignments[a.Dst]
		add(xEnd(a.ID), tStart(a.Dst), -a.FR*(dst.End-dst.Start))
	}
	byProc := map[int][]schedule.Assignment{}
	for _, as := range d.Assignments {
		byProc[int(as.Proc)] = append(byProc[int(as.Proc)], as)
	}
	for _, list := range byProc {
		sort.Slice(list, func(i, j int) bool { return list[i].Start < list[j].Start })
		for i := 1; i < len(list); i++ {
			add(tEnd(list[i-1].Task), tStart(list[i].Task), 0)
		}
	}
	byLink := map[int][]schedule.Transfer{}
	for _, tr := range d.Transfers {
		if !tr.Remote {
			continue
		}
		for _, l := range tr.Links {
			byLink[int(l)] = append(byLink[int(l)], tr)
		}
	}
	for _, list := range byLink {
		sort.Slice(list, func(i, j int) bool { return list[i].Start < list[j].Start })
		for i := 1; i < len(list); i++ {
			add(xEnd(list[i-1].Arc), xStart(list[i].Arc), 0)
		}
	}
	return adj, nil
}
