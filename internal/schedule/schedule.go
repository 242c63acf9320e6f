// Package schedule defines the output of SOS synthesis — a complete
// multiprocessor design with a static schedule — together with an
// independent validator that re-checks every correctness rule of the
// paper's Section 3.3 on the concrete schedule, and an ASCII Gantt
// renderer that regenerates the style of the paper's Figure 2.
package schedule

import (
	"fmt"
	"math"
	"sort"

	"sos/internal/arch"
	"sos/internal/taskgraph"
)

// Assignment records where and when one subtask executes.
type Assignment struct {
	Task  taskgraph.SubtaskID
	Proc  arch.ProcID
	Start float64 // T_SS
	End   float64 // T_SE
}

// Transfer records how and when one data arc's payload moves.
type Transfer struct {
	Arc    taskgraph.ArcID
	From   arch.ProcID
	To     arch.ProcID
	Remote bool          // γ = 1
	Links  []arch.LinkID // resources occupied (empty for local)
	Start  float64       // T_CS
	End    float64       // T_CE
}

// Design is a synthesized multiprocessor system plus its static schedule.
type Design struct {
	Graph *taskgraph.Graph
	Pool  *arch.Instances
	Topo  arch.Topology

	Procs []arch.ProcID // selected processor instances, ascending
	Links []arch.LinkID // created communication resources, ascending

	Assignments []Assignment // indexed by SubtaskID
	Transfers   []Transfer   // indexed by ArcID

	Makespan float64 // T_F
	Cost     float64 // total system cost (processors + links [+ memory])
}

// MemSizes returns the per-processor local memory requirement under the
// static-footprint model of the §5 memory extension: the sum of Mem over
// the subtasks mapped to each selected processor. Keys are selected procs.
func (d *Design) MemSizes() map[arch.ProcID]float64 {
	m := make(map[arch.ProcID]float64, len(d.Procs))
	for _, p := range d.Procs {
		m[p] = 0
	}
	for _, as := range d.Assignments {
		m[as.Proc] += d.Graph.Subtask(as.Task).Mem
	}
	return m
}

// ComputeCost recomputes the design cost from first principles: selected
// processor costs plus created link costs plus (if the library prices
// memory) the static memory footprint. It does not mutate the design.
func (d *Design) ComputeCost() float64 {
	lib := d.Pool.Library()
	cost := 0.0
	for _, p := range d.Procs {
		cost += d.Pool.Cost(p)
	}
	for _, l := range d.Links {
		cost += d.Topo.LinkCost(lib, l)
	}
	if lib.MemCostPerUnit > 0 {
		for _, m := range d.MemSizes() {
			cost += lib.MemCostPerUnit * m
		}
	}
	return cost
}

// DeriveResources fills Procs and Links from the assignments and transfers
// (used processors; resources occupied by remote transfers), discarding any
// phantom selections. It also recomputes Cost and Makespan.
func (d *Design) DeriveResources() {
	procSet := map[arch.ProcID]bool{}
	for _, as := range d.Assignments {
		procSet[as.Proc] = true
	}
	linkSet := map[arch.LinkID]bool{}
	for _, tr := range d.Transfers {
		if tr.Remote {
			for _, l := range tr.Links {
				linkSet[l] = true
			}
		}
	}
	d.Procs = d.Procs[:0]
	for p := range procSet {
		d.Procs = append(d.Procs, p)
	}
	sort.Slice(d.Procs, func(i, j int) bool { return d.Procs[i] < d.Procs[j] })
	d.Links = d.Links[:0]
	for l := range linkSet {
		d.Links = append(d.Links, l)
	}
	sort.Slice(d.Links, func(i, j int) bool { return d.Links[i] < d.Links[j] })
	mk := 0.0
	for _, as := range d.Assignments {
		if as.End > mk {
			mk = as.End
		}
	}
	d.Makespan = mk
	d.Cost = d.ComputeCost()
}

// NumProcsByType summarizes the selected processors as a count per type
// name, e.g. {"p1": 2, "p3": 1}.
func (d *Design) NumProcsByType() map[string]int {
	out := map[string]int{}
	lib := d.Pool.Library()
	for _, p := range d.Procs {
		out[lib.Type(d.Pool.Proc(p).Type).Name]++
	}
	return out
}

// String renders a one-line summary: cost, makespan, processors.
func (d *Design) String() string {
	byType := d.NumProcsByType()
	names := make([]string, 0, len(byType))
	for n := range byType {
		names = append(names, n)
	}
	sort.Strings(names)
	s := fmt.Sprintf("cost=%g perf=%g procs=[", d.Cost, d.Makespan)
	for i, n := range names {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%s×%d", n, byType[n])
	}
	return s + fmt.Sprintf("] links=%d", len(d.Links))
}

// ValidateOptions tunes validation.
type ValidateOptions struct {
	// NoOverlapIO enables the §5 variant check: remote transfers must not
	// overlap any computation on their endpoint processors.
	NoOverlapIO bool
}

// Validate re-checks every correctness rule from Section 3.3 of the paper
// against the concrete schedule, trusting nothing from the solver:
//
//	(3.3.1) every subtask on exactly one, capable, selected processor
//	(3.3.2) transfer type matches the mapping
//	(3.3.4) output availability respected implicitly via (3.3.7)
//	(3.3.5) input availability vs f_R fraction of the consumer
//	(3.3.6) execution duration equals D_PS of the chosen processor
//	(3.3.7) transfers start no earlier than the data is available (f_A)
//	(3.3.8) transfer duration matches local/remote delay
//	(3.3.9) no two subtasks overlap on one processor
//	(3.3.10) no two transfers overlap on one communication resource
//	plus: remote transfers only over created links; cost accounting.
//
// It returns the first violated rule as an error, or nil.
func (d *Design) Validate(opts *ValidateOptions) error {
	const tol = 1e-6 // numeric tolerance of the timing and cost comparisons
	g, pool, topo := d.Graph, d.Pool, d.Topo
	lib := pool.Library()
	n := pool.NumProcs()

	if len(d.Assignments) != g.NumSubtasks() {
		return fmt.Errorf("schedule: %d assignments for %d subtasks", len(d.Assignments), g.NumSubtasks())
	}
	if len(d.Transfers) != g.NumArcs() {
		return fmt.Errorf("schedule: %d transfers for %d arcs", len(d.Transfers), g.NumArcs())
	}
	selected := map[arch.ProcID]bool{}
	for _, p := range d.Procs {
		selected[p] = true
	}
	created := map[arch.LinkID]bool{}
	for _, l := range d.Links {
		created[l] = true
	}

	// (3.3.1) + (3.3.6): mapping and durations.
	for _, s := range g.Subtasks() {
		as := d.Assignments[s.ID]
		if as.Task != s.ID {
			return fmt.Errorf("schedule: assignment %d records task %d", s.ID, as.Task)
		}
		if !selected[as.Proc] {
			return fmt.Errorf("schedule: %s runs on unselected processor %s", s.Name, pool.Proc(as.Proc).Name)
		}
		if !pool.CanRun(as.Proc, s.ID) {
			return fmt.Errorf("schedule: %s mapped to incapable processor %s", s.Name, pool.Proc(as.Proc).Name)
		}
		want := pool.Exec(as.Proc, s.ID)
		if math.Abs((as.End-as.Start)-want) > tol {
			return fmt.Errorf("schedule: %s runs %g..%g (%g) but D_PS=%g on %s",
				s.Name, as.Start, as.End, as.End-as.Start, want, pool.Proc(as.Proc).Name)
		}
		if as.Start < -tol {
			return fmt.Errorf("schedule: %s starts at negative time %g", s.Name, as.Start)
		}
		if as.End > d.Makespan+tol {
			return fmt.Errorf("schedule: %s ends at %g beyond makespan %g", s.Name, as.End, d.Makespan)
		}
	}

	// Transfers: (3.3.2), (3.3.5), (3.3.7), (3.3.8) and link existence.
	for _, a := range g.Arcs() {
		tr := d.Transfers[a.ID]
		if tr.Arc != a.ID {
			return fmt.Errorf("schedule: transfer %d records arc %d", a.ID, tr.Arc)
		}
		src := d.Assignments[a.Src]
		dst := d.Assignments[a.Dst]
		if tr.From != src.Proc || tr.To != dst.Proc {
			return fmt.Errorf("schedule: arc %d endpoints %v→%v disagree with mapping %v→%v",
				a.ID, tr.From, tr.To, src.Proc, dst.Proc)
		}
		remote := src.Proc != dst.Proc
		if tr.Remote != remote {
			return fmt.Errorf("schedule: arc %d marked remote=%v but mapping says %v", a.ID, tr.Remote, remote)
		}
		// (3.3.7): transfer starts after the data is produced.
		avail := src.Start + a.FA*(src.End-src.Start)
		if tr.Start < avail-tol {
			return fmt.Errorf("schedule: arc %d transfer starts %g before data available %g", a.ID, tr.Start, avail)
		}
		// (3.3.8): duration.
		var wantDur float64
		if remote {
			wantDur = topo.DelayPerUnit(lib, n, src.Proc, dst.Proc) * a.Volume
		} else {
			wantDur = lib.LocalDelay * a.Volume
		}
		if math.Abs((tr.End-tr.Start)-wantDur) > tol {
			return fmt.Errorf("schedule: arc %d transfer %g..%g (%g) want duration %g",
				a.ID, tr.Start, tr.End, tr.End-tr.Start, wantDur)
		}
		// (3.3.5): input available by the f_R point of the consumer.
		needBy := dst.Start + a.FR*(dst.End-dst.Start)
		if tr.End > needBy+tol {
			return fmt.Errorf("schedule: arc %d arrives %g after consumer %s needs it (%g)",
				a.ID, tr.End, g.Subtask(a.Dst).Name, needBy)
		}
		// Remote transfers must traverse exactly the topology path, and
		// every resource on it must be created.
		if remote {
			want := topo.Path(n, src.Proc, dst.Proc)
			if len(tr.Links) != len(want) {
				return fmt.Errorf("schedule: arc %d uses %d links, topology path has %d", a.ID, len(tr.Links), len(want))
			}
			for i, l := range want {
				if tr.Links[i] != l {
					return fmt.Errorf("schedule: arc %d link %d is %v, want %v", a.ID, i, tr.Links[i], l)
				}
				if !created[l] {
					return fmt.Errorf("schedule: arc %d uses uncreated link %s", a.ID, topo.LinkName(pool, l))
				}
			}
		} else if len(tr.Links) != 0 {
			return fmt.Errorf("schedule: local arc %d lists links", a.ID)
		}
	}

	// (3.3.9): processor usage exclusion.
	byProc := map[arch.ProcID][]Assignment{}
	for _, as := range d.Assignments {
		byProc[as.Proc] = append(byProc[as.Proc], as)
	}
	for p, list := range byProc {
		sort.Slice(list, func(i, j int) bool { return list[i].Start < list[j].Start })
		for i := 1; i < len(list); i++ {
			if list[i].Start < list[i-1].End-tol {
				return fmt.Errorf("schedule: %s and %s overlap on %s (%g..%g vs %g..%g)",
					g.Subtask(list[i-1].Task).Name, g.Subtask(list[i].Task).Name,
					pool.Proc(p).Name, list[i-1].Start, list[i-1].End, list[i].Start, list[i].End)
			}
		}
	}

	// (3.3.10): link usage exclusion, per resource.
	byLink := map[arch.LinkID][]Transfer{}
	for _, tr := range d.Transfers {
		if !tr.Remote {
			continue
		}
		for _, l := range tr.Links {
			byLink[l] = append(byLink[l], tr)
		}
	}
	for l, list := range byLink {
		sort.Slice(list, func(i, j int) bool { return list[i].Start < list[j].Start })
		for i := 1; i < len(list); i++ {
			if list[i].Start < list[i-1].End-tol {
				return fmt.Errorf("schedule: transfers for arcs %d and %d overlap on %s (%g..%g vs %g..%g)",
					list[i-1].Arc, list[i].Arc, topo.LinkName(pool, l),
					list[i-1].Start, list[i-1].End, list[i].Start, list[i].End)
			}
		}
	}

	// §5 variant: transfers occupy their endpoint processors.
	if opts != nil && opts.NoOverlapIO {
		for _, tr := range d.Transfers {
			if !tr.Remote {
				continue
			}
			for _, as := range d.Assignments {
				if as.Proc != tr.From && as.Proc != tr.To {
					continue
				}
				if tr.Start < as.End-tol && as.Start < tr.End-tol {
					return fmt.Errorf("schedule: no-overlap-IO violated: arc %d transfer (%g..%g) overlaps %s on %s",
						tr.Arc, tr.Start, tr.End, g.Subtask(as.Task).Name, pool.Proc(as.Proc).Name)
				}
			}
		}
	}

	// Makespan and cost accounting.
	mk := 0.0
	for _, as := range d.Assignments {
		if as.End > mk {
			mk = as.End
		}
	}
	if math.Abs(mk-d.Makespan) > tol {
		return fmt.Errorf("schedule: makespan %g but latest completion %g", d.Makespan, mk)
	}
	if c := d.ComputeCost(); math.Abs(c-d.Cost) > tol {
		return fmt.Errorf("schedule: recorded cost %g but recomputed %g", d.Cost, c)
	}
	return nil
}
