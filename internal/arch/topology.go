package arch

import "fmt"

// LinkID identifies one communication resource of a topology: a dedicated
// directed link in the point-to-point style, the single shared bus, or one
// directed ring segment.
type LinkID int

// Topology abstracts the interconnection style of the synthesized system
// (Section 3.2 point-to-point, Section 4.3.2 bus, Section 5 ring). A
// topology answers three questions about a remote transfer from instance
// d1 to instance d2:
//
//   - which communication resources it occupies (Path),
//   - how long a unit of data takes (DelayPerUnit), and
//   - what each resource costs to create (LinkCost).
//
// Resources are "created" (and billed) only if some transfer uses them.
type Topology interface {
	// Name identifies the style ("p2p", "bus", "shmem", "ring");
	// ParseTopology maps it back.
	Name() string
	// NumLinks is the number of distinct communication resources for a
	// pool of n processor instances.
	NumLinks(n int) int
	// Path returns the resources a remote transfer d1→d2 occupies, in
	// traversal order. d1 != d2.
	Path(n int, d1, d2 ProcID) []LinkID
	// DelayPerUnit is the remote transfer time per unit volume for d1→d2.
	DelayPerUnit(lib *Library, n int, d1, d2 ProcID) float64
	// LinkCost is the creation cost of resource l.
	LinkCost(lib *Library, l LinkID) float64
	// LinkName renders resource l for reports, given the instance pool.
	LinkName(ins *Instances, l LinkID) string
}

// ParseTopology returns the topology whose Name is name. cost is the
// module cost of a bus or shared memory; the other styles ignore it.
func ParseTopology(name string, cost float64) (Topology, error) {
	for _, t := range []Topology{PointToPoint{}, Bus{Cost: cost}, SharedMemory{Cost: cost}, Ring{}} {
		if t.Name() == name {
			return t, nil
		}
	}
	return nil, fmt.Errorf("arch: unknown topology %q", name)
}

// PointToPoint is the paper's primary style: a dedicated directed link per
// communicating ordered processor pair, each costing C_L, with uniform
// remote delay D_CR per data unit.
type PointToPoint struct{}

// Name implements Topology.
func (PointToPoint) Name() string { return "p2p" }

// NumLinks implements Topology: one directed link per ordered pair.
func (PointToPoint) NumLinks(n int) int { return n * n }

// Path implements Topology: the single dedicated link d1→d2.
func (PointToPoint) Path(n int, d1, d2 ProcID) []LinkID {
	return []LinkID{LinkID(int(d1)*n + int(d2))}
}

// DelayPerUnit implements Topology.
func (PointToPoint) DelayPerUnit(lib *Library, n int, d1, d2 ProcID) float64 {
	return lib.RemoteDelay
}

// LinkCost implements Topology.
func (PointToPoint) LinkCost(lib *Library, l LinkID) float64 { return lib.LinkCost }

// LinkName implements Topology.
func (PointToPoint) LinkName(ins *Instances, l LinkID) string {
	n := ins.NumProcs()
	d1, d2 := int(l)/n, int(l)%n
	return fmt.Sprintf("l(%s,%s)", ins.Proc(ProcID(d1)).Name, ins.Proc(ProcID(d2)).Name)
}

// Bus is the Section 4.3.2 style: a single shared bus carries every remote
// transfer; transfers serialize on it. The paper treats system cost as
// dominated by processor costs, so the bus itself costs Cost (usually 0).
type Bus struct {
	// Cost is the one-time cost of the bus (0 in the paper's experiments).
	Cost float64
}

// Name implements Topology.
func (Bus) Name() string { return "bus" }

// NumLinks implements Topology: the bus is the only resource.
func (Bus) NumLinks(n int) int { return 1 }

// Path implements Topology.
func (Bus) Path(n int, d1, d2 ProcID) []LinkID { return []LinkID{0} }

// DelayPerUnit implements Topology.
func (Bus) DelayPerUnit(lib *Library, n int, d1, d2 ProcID) float64 {
	return lib.RemoteDelay
}

// LinkCost implements Topology.
func (b Bus) LinkCost(lib *Library, l LinkID) float64 { return b.Cost }

// LinkName implements Topology.
func (Bus) LinkName(ins *Instances, l LinkID) string { return "bus" }

// SharedMemory is one concrete instantiation of the paper's §5
// "shared-memory systems" remark: every remote transfer moves through a
// global shared memory — the producer writes its payload, the consumer
// reads it back — so each transfer occupies the single memory port for a
// write plus a read (2·D_CR per data unit) and all remote traffic
// serializes on that port. The port itself costs Cost (the shared memory
// module), counted once if any remote transfer exists.
type SharedMemory struct {
	// Cost of the shared memory module (0 in cost-dominated studies).
	Cost float64
}

// Name implements Topology.
func (SharedMemory) Name() string { return "shmem" }

// NumLinks implements Topology: the memory port is the only resource.
func (SharedMemory) NumLinks(n int) int { return 1 }

// Path implements Topology.
func (SharedMemory) Path(n int, d1, d2 ProcID) []LinkID { return []LinkID{0} }

// DelayPerUnit implements Topology: write + read through the port.
func (SharedMemory) DelayPerUnit(lib *Library, n int, d1, d2 ProcID) float64 {
	return 2 * lib.RemoteDelay
}

// LinkCost implements Topology.
func (s SharedMemory) LinkCost(lib *Library, l LinkID) float64 { return s.Cost }

// LinkName implements Topology.
func (SharedMemory) LinkName(ins *Instances, l LinkID) string { return "shmem" }

// Ring is one concrete instantiation of the paper's §5 "ring model under
// development": processor instances occupy fixed slots around a
// bidirectional ring (slot = instance ID). A remote transfer follows the
// shorter direction, takes D_CR per unit per hop, and occupies every
// directed segment it crosses; each used segment costs C_L. Intermediate
// slots forward traffic in their switch fabric without involving the
// processor.
type Ring struct{}

// Name implements Topology.
func (Ring) Name() string { return "ring" }

// NumLinks implements Topology: 2n directed segments — clockwise segments
// i→i+1 (IDs 0..n-1) and counter-clockwise segments i→i-1 (IDs n..2n-1,
// where ID n+i is the segment leaving slot i downward).
func (Ring) NumLinks(n int) int { return 2 * n }

// hops returns the clockwise distance from slot a to slot b in a ring of n.
func ringCW(n, a, b int) int { return ((b-a)%n + n) % n }

// Path implements Topology: the directed segments along the shorter
// direction (ties go clockwise).
func (Ring) Path(n int, d1, d2 ProcID) []LinkID {
	a, b := int(d1), int(d2)
	cw := ringCW(n, a, b)
	ccw := n - cw
	var path []LinkID
	if cw <= ccw {
		for s := a; s != b; s = (s + 1) % n {
			path = append(path, LinkID(s))
		}
	} else {
		for s := a; s != b; s = (s - 1 + n) % n {
			path = append(path, LinkID(n+s))
		}
	}
	return path
}

// DelayPerUnit implements Topology: hop count times D_CR.
func (Ring) DelayPerUnit(lib *Library, n int, d1, d2 ProcID) float64 {
	cw := ringCW(n, int(d1), int(d2))
	h := cw
	if n-cw < h {
		h = n - cw
	}
	return float64(h) * lib.RemoteDelay
}

// LinkCost implements Topology.
func (Ring) LinkCost(lib *Library, l LinkID) float64 { return lib.LinkCost }

// LinkName implements Topology.
func (Ring) LinkName(ins *Instances, l LinkID) string {
	n := ins.NumProcs()
	if int(l) < n {
		return fmt.Sprintf("ring(%s→%s)", ins.Proc(ProcID(int(l))).Name, ins.Proc(ProcID((int(l)+1)%n)).Name)
	}
	s := int(l) - n
	return fmt.Sprintf("ring(%s→%s)", ins.Proc(ProcID(s)).Name, ins.Proc(ProcID((s-1+n)%n)).Name)
}
