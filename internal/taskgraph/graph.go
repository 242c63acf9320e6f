// Package taskgraph implements the task data flow graph model of Section 3.1
// of the SOS paper: a directed acyclic graph whose nodes are subtasks and
// whose arcs carry data between them.
//
// Each subtask S_a consumes inputs i_{a,b} and produces outputs o_{a,c}.
// An input carries a fraction f_R(i_{a,b}) — how much of S_a can proceed
// before that input must be present — and an output carries a fraction
// f_A(o_{a,c}) — how much of S_a must complete before that output is
// available. Arcs carry a data volume V used by the communication-delay
// model.
package taskgraph

import (
	"fmt"
	"sort"
)

// SubtaskID identifies a subtask node within a Graph. IDs are dense indices
// assigned in insertion order, so they double as slice indices.
type SubtaskID int

// ArcID identifies a data arc within a Graph, dense in insertion order.
type ArcID int

// Subtask is one node of the task data flow graph.
type Subtask struct {
	ID   SubtaskID
	Name string
	// Mem is the local-memory footprint of the subtask (code + buffers),
	// used only by the §5 memory-cost model extension. Zero is valid.
	Mem float64
}

// Arc is a directed data arc from one subtask's output to another subtask's
// input. In the paper's notation an arc from S_a1 to S_a2 connects output
// o_{a1,c} to input i_{a2,b}.
type Arc struct {
	ID  ArcID
	Src SubtaskID // producing subtask S_a1
	Dst SubtaskID // consuming subtask S_a2

	// SrcPort is the output index c on the source (1-based, per paper
	// notation o_{a,c}); DstPort is the input index b on the destination.
	SrcPort int
	DstPort int

	// Volume is the data volume V_{a1,a2} carried by the arc.
	Volume float64

	// FR is f_R(i_{a2,b}): the fraction of the destination subtask that can
	// proceed without this input. 0 means the input is needed at start.
	FR float64

	// FA is f_A(o_{a1,c}): the fraction of the source subtask that must be
	// complete before the data is available. 1 means available only at end.
	FA float64
}

// Graph is an immutable-after-Freeze task data flow graph.
type Graph struct {
	Name     string
	subtasks []Subtask
	arcs     []Arc
	out      [][]ArcID // per subtask, outgoing arcs
	in       [][]ArcID // per subtask, incoming arcs
	frozen   bool
}

// New creates an empty graph with the given name.
func New(name string) *Graph {
	return &Graph{Name: name}
}

// AddSubtask appends a subtask and returns its ID.
func (g *Graph) AddSubtask(name string) SubtaskID {
	if g.frozen {
		panic("taskgraph: AddSubtask on frozen graph")
	}
	id := SubtaskID(len(g.subtasks))
	if name == "" {
		name = fmt.Sprintf("S%d", id+1)
	}
	g.subtasks = append(g.subtasks, Subtask{ID: id, Name: name})
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	return id
}

// SetMem sets the memory footprint of a subtask (memory-model extension).
func (g *Graph) SetMem(id SubtaskID, mem float64) {
	if g.frozen {
		panic("taskgraph: SetMem on frozen graph")
	}
	g.subtasks[id].Mem = mem
}

// ArcSpec describes one arc for AddArc. Zero-value FR and FA give the
// traditional strict dataflow semantics used by Example 2 of the paper:
// all inputs needed at start (FR=0) and outputs available only at the end
// (FA defaults to 1 — see AddArc).
type ArcSpec struct {
	Volume float64
	FR     float64
	FA     float64
	// StrictFA, when false and FA == 0, makes AddArc default FA to 1
	// (output available only at completion). Set StrictFA to keep FA == 0.
	StrictFA bool
	// SrcPort and DstPort override the automatically assigned port labels
	// (the c in o_{a,c} and the b in i_{a,b}). Zero keeps the automatic
	// 1-based numbering. Overrides exist so fixtures can match the paper's
	// published labels when a subtask also has external (unmodeled) ports.
	SrcPort int
	DstPort int
}

// AddArc appends a data arc from src to dst. Port numbers are assigned
// automatically in arrival order (1-based). A zero spec.FA is interpreted as
// "available at completion" (FA = 1) unless spec.StrictFA is set, because
// f_A = 0 (output available before any work) is almost always a mistake.
func (g *Graph) AddArc(src, dst SubtaskID, spec ArcSpec) ArcID {
	if g.frozen {
		panic("taskgraph: AddArc on frozen graph")
	}
	if int(src) >= len(g.subtasks) || int(dst) >= len(g.subtasks) || src < 0 || dst < 0 {
		panic(fmt.Sprintf("taskgraph: AddArc with unknown subtask %d->%d", src, dst))
	}
	fa := spec.FA
	if fa == 0 && !spec.StrictFA {
		fa = 1
	}
	vol := spec.Volume
	if vol == 0 {
		vol = 1
	}
	id := ArcID(len(g.arcs))
	srcPort := spec.SrcPort
	if srcPort == 0 {
		srcPort = len(g.out[src]) + 1
	}
	dstPort := spec.DstPort
	if dstPort == 0 {
		dstPort = len(g.in[dst]) + 1
	}
	a := Arc{
		ID:      id,
		Src:     src,
		Dst:     dst,
		SrcPort: srcPort,
		DstPort: dstPort,
		Volume:  vol,
		FR:      spec.FR,
		FA:      fa,
	}
	g.arcs = append(g.arcs, a)
	g.out[src] = append(g.out[src], id)
	g.in[dst] = append(g.in[dst], id)
	return id
}

// Freeze validates the graph and marks it immutable. After Freeze the graph
// is safe for concurrent read use.
func (g *Graph) Freeze() error {
	if err := g.Validate(); err != nil {
		return err
	}
	g.frozen = true
	return nil
}

// MustFreeze is Freeze but panics on error; for package-internal fixtures.
func (g *Graph) MustFreeze() *Graph {
	if err := g.Freeze(); err != nil {
		panic(err)
	}
	return g
}

// NumSubtasks returns the number of subtask nodes.
func (g *Graph) NumSubtasks() int { return len(g.subtasks) }

// NumArcs returns the number of data arcs.
func (g *Graph) NumArcs() int { return len(g.arcs) }

// Subtask returns the subtask with the given ID.
func (g *Graph) Subtask(id SubtaskID) Subtask { return g.subtasks[id] }

// Subtasks returns all subtasks in ID order. The returned slice is shared;
// callers must not modify it.
func (g *Graph) Subtasks() []Subtask { return g.subtasks }

// Arc returns the arc with the given ID.
func (g *Graph) Arc(id ArcID) Arc { return g.arcs[id] }

// Arcs returns all arcs in ID order. The returned slice is shared; callers
// must not modify it.
func (g *Graph) Arcs() []Arc { return g.arcs }

// Out returns the IDs of arcs leaving subtask a.
func (g *Graph) Out(a SubtaskID) []ArcID { return g.out[a] }

// In returns the IDs of arcs entering subtask a.
func (g *Graph) In(a SubtaskID) []ArcID { return g.in[a] }

// Validate checks structural invariants: valid endpoints, acyclicity, and
// fraction ranges. It returns the first violation found.
func (g *Graph) Validate() error {
	for _, a := range g.arcs {
		if a.Src == a.Dst {
			return fmt.Errorf("taskgraph %q: self-loop on subtask %s", g.Name, g.subtasks[a.Src].Name)
		}
		if a.Volume < 0 {
			return fmt.Errorf("taskgraph %q: arc %s->%s has negative volume %g",
				g.Name, g.subtasks[a.Src].Name, g.subtasks[a.Dst].Name, a.Volume)
		}
		if a.FR < 0 || a.FR > 1 {
			return fmt.Errorf("taskgraph %q: arc %s->%s has f_R=%g outside [0,1]",
				g.Name, g.subtasks[a.Src].Name, g.subtasks[a.Dst].Name, a.FR)
		}
		if a.FA < 0 || a.FA > 1 {
			return fmt.Errorf("taskgraph %q: arc %s->%s has f_A=%g outside [0,1]",
				g.Name, g.subtasks[a.Src].Name, g.subtasks[a.Dst].Name, a.FA)
		}
	}
	if _, err := g.TopoOrder(); err != nil {
		return err
	}
	return nil
}

// TopoOrder returns the subtasks in a topological order (Kahn's algorithm,
// smallest-ID-first for determinism) or an error naming a cycle member if
// the graph is cyclic.
func (g *Graph) TopoOrder() ([]SubtaskID, error) {
	n := len(g.subtasks)
	indeg := make([]int, n)
	for _, a := range g.arcs {
		indeg[a.Dst]++
	}
	var ready []SubtaskID
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			ready = append(ready, SubtaskID(i))
		}
	}
	order := make([]SubtaskID, 0, n)
	for len(ready) > 0 {
		sort.Slice(ready, func(i, j int) bool { return ready[i] < ready[j] })
		v := ready[0]
		ready = ready[1:]
		order = append(order, v)
		for _, aid := range g.out[v] {
			d := g.arcs[aid].Dst
			indeg[d]--
			if indeg[d] == 0 {
				ready = append(ready, d)
			}
		}
	}
	if len(order) != n {
		for i := 0; i < n; i++ {
			if indeg[i] > 0 {
				return nil, fmt.Errorf("taskgraph %q: cycle involving subtask %s", g.Name, g.subtasks[i].Name)
			}
		}
	}
	return order, nil
}

// Clone returns a deep, unfrozen copy of the graph.
func (g *Graph) Clone() *Graph {
	ng := &Graph{Name: g.Name}
	ng.subtasks = append([]Subtask(nil), g.subtasks...)
	ng.arcs = append([]Arc(nil), g.arcs...)
	ng.out = make([][]ArcID, len(g.out))
	ng.in = make([][]ArcID, len(g.in))
	for i := range g.out {
		ng.out[i] = append([]ArcID(nil), g.out[i]...)
		ng.in[i] = append([]ArcID(nil), g.in[i]...)
	}
	return ng
}

// ScaleVolumes returns a copy of the graph with every arc volume multiplied
// by k. This is the transform behind the paper's §4.2.1 communication-time
// tradeoff study.
func (g *Graph) ScaleVolumes(k float64) *Graph {
	ng := g.Clone()
	ng.Name = fmt.Sprintf("%s(vol×%g)", g.Name, k)
	for i := range ng.arcs {
		ng.arcs[i].Volume *= k
	}
	ng.frozen = g.frozen
	return ng
}
