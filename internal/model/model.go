// Package model builds the SOS mixed integer-linear program of Section 3 of
// the paper from a task data flow graph, a processor instance pool, and an
// interconnect topology. It implements every constraint family (3.3.1)
// through (3.3.13) with the linearizations (3.4.14)–(3.4.21), the bus model
// of Section 4.3.2, and three of the Section 5 extensions: ring
// interconnect, local-memory cost, and the no-I/O-overlap variant.
//
// The resulting lp.Problem is solved by internal/milp (branch and bound);
// Extract converts a solution vector into a schedule.Design, which callers
// should re-validate with schedule.Design.Validate — the extraction trusts
// the solver for nothing that the validator cannot re-check.
package model

import (
	"fmt"

	"sos/internal/arch"
	"sos/internal/lp"
	"sos/internal/taskgraph"
)

// Objective selects what the MILP minimizes.
type Objective int

// Objectives.
const (
	// MinMakespan minimizes the task completion time T_F, subject to an
	// optional total-cost cap. This is the mode used for all of the
	// paper's experiments (the non-inferior sets are traced by sweeping
	// the cost cap).
	MinMakespan Objective = iota
	// MinCost minimizes total system cost subject to a deadline on T_F.
	MinCost
)

// Options configures a model build.
type Options struct {
	Objective Objective

	// CostCap bounds total system cost when Objective == MinMakespan.
	// Zero or negative means uncapped.
	CostCap float64

	// Deadline bounds T_F when Objective == MinCost. Required in that
	// mode.
	Deadline float64

	// Memory enables the §5 local-memory extension: per-processor memory
	// sizing variables whose cost (Library.MemCostPerUnit per unit) joins
	// the system cost.
	Memory bool

	// NoOverlapIO enables the §5 variant without I/O modules: a remote
	// transfer occupies both endpoint processors, so it cannot overlap
	// any computation there.
	NoOverlapIO bool

	// NoSymmetryBreaking disables the lexicographic β ordering rows for
	// same-type processor instances. Symmetry breaking is automatically
	// disabled for the ring topology, where instance identity determines
	// ring position and instances of a type are therefore not
	// interchangeable.
	NoSymmetryBreaking bool

	// NoBoundTightening disables the earliest-start-time lower bounds on
	// the timing variables (a valid preprocessing cut).
	NoBoundTightening bool

	// NoLoadCuts disables the per-processor load rows
	// T_F ≥ Σ_a D_PS(d,a)·σ_{d,a}: subtasks on one processor run
	// serially, so each instance's committed load bounds the finish time.
	// These valid inequalities sharpen the LP relaxation dramatically on
	// cost-capped instances (see the ablation benchmarks).
	NoLoadCuts bool
}

// Stats summarizes model size, mirroring the numbers the paper reports for
// its examples ("21 timing and 72 binary variables, and 174 constraints").
type Stats struct {
	TimingVars    int // T_SS, T_SE, T_OA, T_CS, T_CE, T_IA, T_F
	BinaryVars    int // σ, γ, δ, α, φ, β, χ (+ ψ, θ in the no-overlap variant)
	BranchVars    int // binaries the solver actually branches on (σ, α, φ, ψ, θ)
	ContinuousAux int // π (ring) and memory-sizing columns
	Constraints   int
	Nonzeros      int // structural coefficient count (sparse-kernel work scale)
	BigM          float64
}

func (s Stats) String() string {
	return fmt.Sprintf("%d timing + %d binary (+%d aux) variables, %d constraints (branch on %d, T_M=%g)",
		s.TimingVars, s.BinaryVars, s.ContinuousAux, s.Constraints, s.BranchVars, s.BigM)
}

// Model is a built SOS MILP with its variable index maps.
type Model struct {
	Graph *taskgraph.Graph
	Pool  *arch.Instances
	Topo  arch.Topology
	Opts  Options
	Prob  *lp.Problem
	Stats Stats

	TM float64

	// Timing columns.
	TSS, TSE           []lp.ColID // per subtask
	TOA, TCS, TCE, TIA []lp.ColID // per arc
	TF                 lp.ColID

	// Binary columns.
	Sigma map[sigmaKey]lp.ColID // subtask→processor mapping
	Gamma []lp.ColID            // per arc: remote(1)/local(0)
	Delta map[deltaKey]lp.ColID // linearization of σ·σ per arc/proc
	Alpha map[pairKey]lp.ColID  // subtask-pair execution order
	Phi   map[pairKey]lp.ColID  // transfer-pair order on shared resources
	Beta  []lp.ColID            // per processor instance: selected
	Chi   map[arch.LinkID]lp.ColID

	// Extension columns.
	Pi    map[piKey]lp.ColID // ring: σ_{d1,src}·σ_{d2,dst} products (continuous)
	MemD  []lp.ColID         // per processor: memory size (Memory option)
	Psi   map[psiKey]lp.ColID
	Theta map[pairKey]lp.ColID

	branch []lp.ColID // columns branch-and-bound must branch on

	// capRow / deadlineRow are the Prob indices of the cost-cap and
	// deadline rows (-1 when the build emitted none). SetCostCap and
	// SetDeadline rewrite only these rows' Rhs on a cloned problem instead
	// of rebuilding the model.
	capRow      int
	deadlineRow int
}

type sigmaKey struct {
	Proc arch.ProcID
	Task taskgraph.SubtaskID
}

type deltaKey struct {
	Arc  taskgraph.ArcID
	Proc arch.ProcID
}

// pairKey holds an ordered pair of indices (a < b) of subtasks or arcs.
type pairKey struct{ A, B int }

type piKey struct {
	Arc    taskgraph.ArcID
	D1, D2 arch.ProcID
}

type psiKey struct {
	Arc  taskgraph.ArcID
	Task taskgraph.SubtaskID
}

// BranchCols returns the columns the MILP must branch on.
func (m *Model) BranchCols() []lp.ColID { return m.branch }

// BigM computes the default time horizon T_M: the length of a schedule that
// runs every subtask (at its slowest capable processor) and every transfer
// (at its slowest routing) back to back. Any optimal schedule fits within
// it, and it is far tighter than an arbitrary constant.
func BigM(g *taskgraph.Graph, pool *arch.Instances, topo arch.Topology) float64 {
	lib := pool.Library()
	n := pool.NumProcs()
	tm := 0.0
	for _, s := range g.Subtasks() {
		worst := 0.0
		for _, d := range pool.Capable(s.ID) {
			if e := pool.Exec(d, s.ID); e > worst {
				worst = e
			}
		}
		tm += worst
	}
	for _, a := range g.Arcs() {
		worst := lib.LocalDelay * a.Volume
		for _, d1 := range pool.Capable(a.Src) {
			for _, d2 := range pool.Capable(a.Dst) {
				if d1 == d2 {
					continue
				}
				if dl := topo.DelayPerUnit(lib, n, d1, d2) * a.Volume; dl > worst {
					worst = dl
				}
			}
		}
		tm += worst
	}
	if tm <= 0 {
		tm = 1
	}
	return tm
}
