// Package sim is a discrete-event simulator for the message-passing
// multiprocessor systems SOS synthesizes. It provides two independent
// dynamic checks on a synthesized design:
//
//   - Replay executes the static schedule on a simulated machine — an
//     event queue fires every subtask execution and data transfer at its
//     scheduled time while the simulator tracks processor, I/O-module, and
//     link state — and reports any causality or resource conflict the
//     machine would hit.
//
//   - SelfTimed re-executes the design as a real self-timed system would:
//     each event fires as soon as its data and resources allow, keeping
//     only the schedule's per-resource orderings. Its makespan can never
//     exceed the static schedule's, and equals it when the MILP schedule
//     is fully compressed.
//
// Together with schedule.Design.Validate (a static rule checker) this
// plays the role of the execution substrate the paper's synthesized
// systems target.
package sim

import (
	"container/heap"
	"fmt"
	"sort"

	"sos/internal/arch"
	"sos/internal/schedule"
	"sos/internal/taskgraph"
)

// EventKind labels trace events.
type EventKind int

// Event kinds, in firing-priority order for simultaneous timestamps:
// completions free resources before new work claims them, and a producing
// subtask starts before any same-instant transfer of its output.
const (
	TaskEnd EventKind = iota
	TransferEnd
	TaskStart
	TransferStart
)

func (k EventKind) String() string {
	switch k {
	case TaskStart:
		return "task-start"
	case TaskEnd:
		return "task-end"
	case TransferStart:
		return "xfer-start"
	case TransferEnd:
		return "xfer-end"
	}
	return "?"
}

// Event is one entry of a simulation trace.
type Event struct {
	Time float64
	Kind EventKind
	// Task is valid for TaskStart/TaskEnd; Arc for TransferStart/TransferEnd.
	Task taskgraph.SubtaskID
	Arc  taskgraph.ArcID
	Proc arch.ProcID // executing processor (task events) or source (transfers)
}

// Trace is the ordered event log of one simulated execution.
type Trace struct {
	Events   []Event
	Makespan float64
}

// String renders the trace, one event per line.
func (t *Trace) String() string {
	s := ""
	for _, e := range t.Events {
		s += fmt.Sprintf("t=%-8.3f %-11s", e.Time, e.Kind)
		switch e.Kind {
		case TaskStart, TaskEnd:
			s += fmt.Sprintf(" S%d on proc %d", int(e.Task)+1, e.Proc)
		default:
			s += fmt.Sprintf(" arc %d", e.Arc)
		}
		s += "\n"
	}
	return s
}

// eventPQ is a time-ordered priority queue of events.
type eventPQ []Event

func (q eventPQ) Len() int { return len(q) }
func (q eventPQ) Less(i, j int) bool {
	if q[i].Time != q[j].Time {
		return q[i].Time < q[j].Time
	}
	return q[i].Kind < q[j].Kind
}
func (q eventPQ) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *eventPQ) Push(x interface{}) { *q = append(*q, x.(Event)) }
func (q *eventPQ) Pop() interface{} {
	old := *q
	n := len(old)
	e := old[n-1]
	*q = old[:n-1]
	return e
}

// Replay runs the static schedule through the event-queue machine and
// verifies, as each event fires, that the simulated hardware could honor
// it: processors execute one subtask at a time, transfers only start once
// their data exists and their links are idle, and every input arrives by
// its consumer's f_R point. Returns the trace on success.
func Replay(d *schedule.Design) (*Trace, error) {
	g := d.Graph
	const eps = 1e-9

	var pq eventPQ
	for _, as := range d.Assignments {
		heap.Push(&pq, Event{Time: as.Start, Kind: TaskStart, Task: as.Task, Proc: as.Proc})
		heap.Push(&pq, Event{Time: as.End, Kind: TaskEnd, Task: as.Task, Proc: as.Proc})
	}
	for _, tr := range d.Transfers {
		heap.Push(&pq, Event{Time: tr.Start, Kind: TransferStart, Arc: tr.Arc, Proc: tr.From})
		heap.Push(&pq, Event{Time: tr.End, Kind: TransferEnd, Arc: tr.Arc, Proc: tr.From})
	}

	// Machine state.
	procBusy := map[arch.ProcID]int{} // running subtask count per processor
	linkBusy := map[arch.LinkID]int{} // active transfers per link
	taskDone := make([]bool, g.NumSubtasks())
	taskRunning := make([]bool, g.NumSubtasks())

	trace := &Trace{}
	for pq.Len() > 0 {
		e := heap.Pop(&pq).(Event)
		trace.Events = append(trace.Events, e)
		switch e.Kind {
		case TaskStart:
			if procBusy[e.Proc] > 0 {
				return nil, fmt.Errorf("sim: t=%g processor %s already busy when %s starts",
					e.Time, d.Pool.Proc(e.Proc).Name, g.Subtask(e.Task).Name)
			}
			procBusy[e.Proc]++
			taskRunning[e.Task] = true
		case TaskEnd:
			if !taskRunning[e.Task] {
				return nil, fmt.Errorf("sim: t=%g %s ends without having started", e.Time, g.Subtask(e.Task).Name)
			}
			// Every input must have fully arrived by its f_R point, which
			// is at or before the end.
			as := d.Assignments[e.Task]
			for _, aid := range g.In(e.Task) {
				a := g.Arc(aid)
				deadline := as.Start + a.FR*(as.End-as.Start)
				tr := d.Transfers[aid]
				if tr.End > deadline+eps {
					return nil, fmt.Errorf("sim: t=%g %s needed input arc %d by %g but it arrives %g",
						e.Time, g.Subtask(e.Task).Name, aid, deadline, tr.End)
				}
			}
			procBusy[e.Proc]--
			taskRunning[e.Task] = false
			taskDone[e.Task] = true
		case TransferStart:
			a := g.Arc(e.Arc)
			src := d.Assignments[a.Src]
			avail := src.Start + a.FA*(src.End-src.Start)
			if e.Time < avail-eps {
				return nil, fmt.Errorf("sim: t=%g transfer of arc %d starts before its data exists (t=%g)",
					e.Time, e.Arc, avail)
			}
			// The producing subtask must at least have started (the I/O
			// module streams intermediate output).
			if !taskRunning[a.Src] && !taskDone[a.Src] && a.FA > 0 {
				return nil, fmt.Errorf("sim: t=%g transfer of arc %d fires before producer %s starts",
					e.Time, e.Arc, g.Subtask(a.Src).Name)
			}
			for _, l := range d.Transfers[e.Arc].Links {
				if linkBusy[l] > 0 {
					return nil, fmt.Errorf("sim: t=%g link %s busy when arc %d transfer starts",
						e.Time, d.Topo.LinkName(d.Pool, l), e.Arc)
				}
				linkBusy[l]++
			}
		case TransferEnd:
			for _, l := range d.Transfers[e.Arc].Links {
				linkBusy[l]--
			}
		}
		if e.Time > trace.Makespan && (e.Kind == TaskEnd) {
			trace.Makespan = e.Time
		}
	}
	for i, done := range taskDone {
		if !done {
			return nil, fmt.Errorf("sim: subtask %s never completed", g.Subtask(taskgraph.SubtaskID(i)).Name)
		}
	}
	return trace, nil
}

// SelfTimed re-executes the design as-soon-as-possible while preserving the
// schedule's per-processor subtask order and per-link transfer order. It
// returns the compressed trace; its makespan never exceeds the static
// schedule's (the static schedule is one feasible timing of the same event
// orders).
func SelfTimed(d *schedule.Design) (*Trace, error) {
	g := d.Graph
	nT := g.NumSubtasks()
	nX := g.NumArcs()

	// Node numbering in the event graph: task-start a -> a,
	// task-end a -> nT+a, xfer-start e -> 2nT+e, xfer-end e -> 2nT+nX+e.
	tStart := func(a taskgraph.SubtaskID) int { return int(a) }
	tEnd := func(a taskgraph.SubtaskID) int { return nT + int(a) }
	xStart := func(e taskgraph.ArcID) int { return 2*nT + int(e) }
	xEnd := func(e taskgraph.ArcID) int { return 2*nT + nX + int(e) }

	adj, err := eventGraph(d)
	if err != nil {
		return nil, err
	}
	times, _, err := longestPath(adj)
	if err != nil {
		return nil, err
	}
	trace := &Trace{}
	for _, s := range g.Subtasks() {
		trace.Events = append(trace.Events,
			Event{Time: times[tStart(s.ID)], Kind: TaskStart, Task: s.ID, Proc: d.Assignments[s.ID].Proc},
			Event{Time: times[tEnd(s.ID)], Kind: TaskEnd, Task: s.ID, Proc: d.Assignments[s.ID].Proc})
		if times[tEnd(s.ID)] > trace.Makespan {
			trace.Makespan = times[tEnd(s.ID)]
		}
	}
	for _, a := range g.Arcs() {
		trace.Events = append(trace.Events,
			Event{Time: times[xStart(a.ID)], Kind: TransferStart, Arc: a.ID, Proc: d.Transfers[a.ID].From},
			Event{Time: times[xEnd(a.ID)], Kind: TransferEnd, Arc: a.ID, Proc: d.Transfers[a.ID].From})
	}
	sort.SliceStable(trace.Events, func(i, j int) bool {
		if trace.Events[i].Time != trace.Events[j].Time {
			return trace.Events[i].Time < trace.Events[j].Time
		}
		return trace.Events[i].Kind < trace.Events[j].Kind
	})
	return trace, nil
}

type edgeTo struct {
	to int
	w  float64
}

// longestPath computes earliest event times (all >= 0) over the event
// graph by Kahn's algorithm, and returns the topological order it relaxed
// the events in. It errors on cycles (inconsistent resource orders).
func longestPath(adj [][]edgeTo) (times []float64, order []int, err error) {
	n := len(adj)
	indeg := make([]int, n)
	for _, es := range adj {
		for _, e := range es {
			indeg[e.to]++
		}
	}
	times = make([]float64, n)
	// order is also the queue: events are appended as they become ready
	// and relaxed in the order they were appended.
	order = make([]int, 0, n)
	for i, d := range indeg {
		if d == 0 {
			order = append(order, i)
		}
	}
	for k := 0; k < len(order); k++ {
		v := order[k]
		for _, e := range adj[v] {
			if t := times[v] + e.w; t > times[e.to] {
				times[e.to] = t
			}
			indeg[e.to]--
			if indeg[e.to] == 0 {
				order = append(order, e.to)
			}
		}
	}
	if len(order) != n {
		return nil, nil, fmt.Errorf("sim: event-order cycle (schedule's resource orders contradict its dataflow)")
	}
	// Longest path takes the max against the zero initial value, so no
	// event time can be negative even through negative-weight f_R edges.
	return times, order, nil
}
