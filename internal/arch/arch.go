// Package arch models the hardware side of the SOS synthesis problem
// (Section 3.2 of the paper): a library of heterogeneous processor types
// with cost/speed/functionality characteristics, pools of selectable
// processor instances, and interconnect topologies (point-to-point, bus,
// ring) with their transfer-delay and link-cost semantics.
package arch

import (
	"fmt"
	"math"
	"sort"

	"sos/internal/taskgraph"
)

// TypeID identifies a processor type in a Library (dense index).
type TypeID int

// ProcID identifies a processor instance in an Instances pool (dense index).
type ProcID int

// NoTime marks a (type, subtask) pair the type cannot execute — the '-'
// entries of Tables I and III.
var NoTime = math.Inf(1)

// ProcType is one row of the paper's processor-characteristics tables:
// a processor type with a cost and per-subtask execution times. Exec times
// are indexed by taskgraph.SubtaskID; NoTime means "functionally incapable"
// (heterogeneity of Type-I); differing finite times across types are
// heterogeneity of Type-II.
type ProcType struct {
	ID   TypeID
	Name string
	Cost float64
	exec []float64
}

// Library is the set of processor types available to the synthesizer,
// together with the communication parameters shared by all links.
type Library struct {
	Name  string
	types []ProcType

	// LinkCost is C_L, the cost of creating one communication link
	// (one ring segment in the ring topology; ignored by the bus topology
	// unless BusCost is used instead).
	LinkCost float64

	// RemoteDelay is D_CR: time to move one unit of data across a link.
	RemoteDelay float64

	// LocalDelay is D_CL: time to move one unit of data within a processor.
	LocalDelay float64

	// MemCostPerUnit is C_M for the §5 local-memory extension: cost per
	// unit of local memory provisioned at a processor. Zero disables the
	// memory term.
	MemCostPerUnit float64
}

// NewLibrary creates an empty library with the given communication
// parameters.
func NewLibrary(name string, linkCost, remoteDelay, localDelay float64) *Library {
	return &Library{Name: name, LinkCost: linkCost, RemoteDelay: remoteDelay, LocalDelay: localDelay}
}

// AddType adds a processor type. exec[a] is D_PS(type, S_a); use NoTime for
// subtasks the type cannot run. The slice is copied.
func (l *Library) AddType(name string, cost float64, exec []float64) TypeID {
	id := TypeID(len(l.types))
	if name == "" {
		name = fmt.Sprintf("p%d", id+1)
	}
	l.types = append(l.types, ProcType{
		ID:   id,
		Name: name,
		Cost: cost,
		exec: append([]float64(nil), exec...),
	})
	return id
}

// NumTypes returns the number of processor types.
func (l *Library) NumTypes() int { return len(l.types) }

// Type returns the processor type with the given ID.
func (l *Library) Type(id TypeID) ProcType { return l.types[id] }

// Types returns all types in ID order (shared slice; do not modify).
func (l *Library) Types() []ProcType { return l.types }

// Exec returns D_PS(t, a): the execution time of subtask a on type t, or
// NoTime if the type cannot run it (or the table has no entry for a).
func (l *Library) Exec(t TypeID, a taskgraph.SubtaskID) float64 {
	pt := l.types[t]
	if int(a) >= len(pt.exec) {
		return NoTime
	}
	return pt.exec[a]
}

// CanRun reports whether type t can execute subtask a.
func (l *Library) CanRun(t TypeID, a taskgraph.SubtaskID) bool {
	return !math.IsInf(l.Exec(t, a), 1)
}

// CapableTypes returns the types able to execute subtask a, in ID order.
func (l *Library) CapableTypes(a taskgraph.SubtaskID) []TypeID {
	var out []TypeID
	for _, t := range l.types {
		if l.CanRun(t.ID, a) {
			out = append(out, t.ID)
		}
	}
	return out
}

// Validate checks that every subtask of g has at least one capable type and
// that all finite execution times and costs are non-negative.
func (l *Library) Validate(g *taskgraph.Graph) error {
	for _, t := range l.types {
		if t.Cost < 0 {
			return fmt.Errorf("arch: type %s has negative cost %g", t.Name, t.Cost)
		}
		for a, e := range t.exec {
			if e < 0 {
				return fmt.Errorf("arch: type %s has negative exec time %g for subtask %d", t.Name, e, a)
			}
		}
	}
	for _, s := range g.Subtasks() {
		if len(l.CapableTypes(s.ID)) == 0 {
			return fmt.Errorf("arch: no processor type can execute subtask %s", s.Name)
		}
	}
	if l.RemoteDelay < 0 || l.LocalDelay < 0 || l.LinkCost < 0 {
		return fmt.Errorf("arch: negative communication parameter (C_L=%g D_CR=%g D_CL=%g)",
			l.LinkCost, l.RemoteDelay, l.LocalDelay)
	}
	return nil
}

// ScaleExec returns a copy of the library with every finite execution time
// multiplied by k — the transform behind the paper's §4.2.2 subtask-size
// tradeoff study.
func (l *Library) ScaleExec(k float64) *Library {
	nl := &Library{
		Name:           fmt.Sprintf("%s(exec×%g)", l.Name, k),
		LinkCost:       l.LinkCost,
		RemoteDelay:    l.RemoteDelay,
		LocalDelay:     l.LocalDelay,
		MemCostPerUnit: l.MemCostPerUnit,
	}
	for _, t := range l.types {
		exec := make([]float64, len(t.exec))
		for i, e := range t.exec {
			if math.IsInf(e, 1) {
				exec[i] = NoTime
			} else {
				exec[i] = e * k
			}
		}
		nl.AddType(t.Name, t.Cost, exec)
	}
	return nl
}

// Proc is one selectable processor instance: a concrete copy of a type.
// Instances of the same type are interchangeable; Index distinguishes them
// (p_{1a}, p_{1b}, ... in the paper's naming).
type Proc struct {
	ID    ProcID
	Type  TypeID
	Index int // 0-based copy number within the type
	Name  string
}

// Instances is the pool of processor instances the MILP may select from
// (the set P of Section 3.2). The paper leaves the pool implicit; we make
// it explicit and configurable.
type Instances struct {
	lib   *Library
	procs []Proc

	// capable[a] is P_a, the instances able to run subtask a, ascending.
	// Subtasks past every type's exec table have no entry.
	capable [][]ProcID
}

// InstancePool builds an instance pool with copies[t] instances of each
// type t. A nil copies slice defaults to one instance per type. The
// capable-instance list of every subtask the library's exec tables cover
// is computed here, once.
func InstancePool(lib *Library, copies []int) *Instances {
	ins := &Instances{lib: lib}
	nSub := 0
	for _, t := range lib.Types() {
		n := 1
		if copies != nil {
			n = copies[t.ID]
		}
		if n > 0 && len(t.exec) > nSub {
			nSub = len(t.exec)
		}
		for k := 0; k < n; k++ {
			ins.procs = append(ins.procs, Proc{
				ID:    ProcID(len(ins.procs)),
				Type:  t.ID,
				Index: k,
				Name:  fmt.Sprintf("%s%c", t.Name, 'a'+k),
			})
		}
	}
	ins.capable = make([][]ProcID, nSub)
	for a := range ins.capable {
		var ps []ProcID
		for _, p := range ins.procs {
			if lib.CanRun(p.Type, taskgraph.SubtaskID(a)) {
				ps = append(ps, p.ID)
			}
		}
		ins.capable[a] = ps[:len(ps):len(ps)]
	}
	return ins
}

// AutoPool sizes the pool so that every design the model could plausibly
// choose is expressible: for each type, one instance per subtask that type
// can run, capped at maxPerType (0 means no cap). This is the conservative
// default used when the caller gives no explicit pool.
func AutoPool(lib *Library, g *taskgraph.Graph, maxPerType int) *Instances {
	copies := make([]int, lib.NumTypes())
	for _, t := range lib.Types() {
		n := 0
		for _, s := range g.Subtasks() {
			if lib.CanRun(t.ID, s.ID) {
				n++
			}
		}
		if maxPerType > 0 && n > maxPerType {
			n = maxPerType
		}
		if n == 0 {
			n = 0 // type useless for this graph; no instances
		}
		copies[t.ID] = n
	}
	return InstancePool(lib, copies)
}

// Library returns the library the pool draws from.
func (ins *Instances) Library() *Library { return ins.lib }

// NumProcs returns the number of instances in the pool.
func (ins *Instances) NumProcs() int { return len(ins.procs) }

// Proc returns the instance with the given ID.
func (ins *Instances) Proc(id ProcID) Proc { return ins.procs[id] }

// Procs returns all instances in ID order (shared slice; do not modify).
func (ins *Instances) Procs() []Proc { return ins.procs }

// Exec returns D_PS(Typ(p), a) for instance p.
func (ins *Instances) Exec(p ProcID, a taskgraph.SubtaskID) float64 {
	return ins.lib.Exec(ins.procs[p].Type, a)
}

// CanRun reports whether instance p can execute subtask a.
func (ins *Instances) CanRun(p ProcID, a taskgraph.SubtaskID) bool {
	return ins.lib.CanRun(ins.procs[p].Type, a)
}

// Capable returns P_a: the instances able to execute subtask a, in ID order
// (shared slice, built once by InstancePool; do not modify). Its capacity
// is clipped to its length, so an append copies instead of writing into
// storage every caller shares.
func (ins *Instances) Capable(a taskgraph.SubtaskID) []ProcID {
	if int(a) >= len(ins.capable) {
		return nil
	}
	return ins.capable[a]
}

// Cost returns the cost C_d of instance p (its type's cost).
func (ins *Instances) Cost(p ProcID) float64 {
	return ins.lib.Type(ins.procs[p].Type).Cost
}

// SameType returns the groups of instance IDs that share a processor type
// and therefore are symmetric (interchangeable) in the model. Groups are
// sorted by ID and only groups of size >= 2 are returned.
func (ins *Instances) SameType() [][]ProcID {
	byType := map[TypeID][]ProcID{}
	for _, p := range ins.procs {
		byType[p.Type] = append(byType[p.Type], p.ID)
	}
	var groups [][]ProcID
	for _, g := range byType {
		if len(g) >= 2 {
			sort.Slice(g, func(i, j int) bool { return g[i] < g[j] })
			groups = append(groups, g)
		}
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i][0] < groups[j][0] })
	return groups
}
