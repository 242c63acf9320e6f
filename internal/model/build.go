package model

import (
	"fmt"
	"math"
	"sort"

	"sos/internal/arch"
	"sos/internal/lp"
	"sos/internal/taskgraph"
)

// Build assembles the SOS MILP for the given problem instance. The returned
// model's Prob is ready for internal/milp with BranchCols as the integer
// set.
func Build(g *taskgraph.Graph, pool *arch.Instances, topo arch.Topology, opts Options) (*Model, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	lib := pool.Library()
	if err := lib.Validate(g); err != nil {
		return nil, err
	}
	if pool.NumProcs() == 0 {
		return nil, fmt.Errorf("model: empty processor pool")
	}
	for _, s := range g.Subtasks() {
		if len(pool.Capable(s.ID)) == 0 {
			return nil, fmt.Errorf("model: no instance in the pool can run %s", s.Name)
		}
	}
	if opts.Objective == MinCost && opts.Deadline <= 0 {
		return nil, fmt.Errorf("model: MinCost requires a positive Deadline")
	}

	m := &Model{
		Graph: g,
		Pool:  pool,
		Topo:  topo,
		Opts:  opts,
		Prob:  lp.NewProblem(fmt.Sprintf("sos-%s-%s", g.Name, topo.Name())),
		Sigma: map[sigmaKey]lp.ColID{},
		Delta: map[deltaKey]lp.ColID{},
		Alpha: map[pairKey]lp.ColID{},
		Phi:   map[pairKey]lp.ColID{},
		Chi:   map[arch.LinkID]lp.ColID{},
		Pi:    map[piKey]lp.ColID{},
		Psi:   map[psiKey]lp.ColID{},
		Theta: map[pairKey]lp.ColID{},

		capRow:      -1,
		deadlineRow: -1,
	}
	buildCount.Add(1)
	m.TM = BigM(g, pool, topo)

	m.addTimingCols()
	m.addMappingCols()
	m.addOrderingCols()
	m.addResourceCols()

	hosted := hostedBy(g, pool)
	m.addMappingRows()
	m.addTimingRows(hosted)
	m.addExclusionRows()
	m.addResourceRows(hosted)
	m.addObjective()
	if !opts.NoBoundTightening {
		m.tightenBounds()
	}
	m.fillStats()
	// Build the sparse column view once, while the model is still owned by
	// one goroutine: every later solve and clone (Pareto sweeps hand clones
	// of this problem to parallel workers) shares the snapshot instead of
	// re-transposing the rows.
	m.Prob.PrecomputeColumns()
	return m, nil
}

// addTimingCols creates all continuous event-time columns.
func (m *Model) addTimingCols() {
	g, tm := m.Graph, m.TM
	m.TSS = make([]lp.ColID, g.NumSubtasks())
	m.TSE = make([]lp.ColID, g.NumSubtasks())
	for _, s := range g.Subtasks() {
		m.TSS[s.ID] = m.Prob.AddCol(fmt.Sprintf("TSS(%s)", s.Name), 0, tm, 0)
		m.TSE[s.ID] = m.Prob.AddCol(fmt.Sprintf("TSE(%s)", s.Name), 0, tm, 0)
	}
	m.TOA = make([]lp.ColID, g.NumArcs())
	m.TCS = make([]lp.ColID, g.NumArcs())
	m.TCE = make([]lp.ColID, g.NumArcs())
	m.TIA = make([]lp.ColID, g.NumArcs())
	for _, a := range g.Arcs() {
		tag := m.arcTag(a)
		m.TOA[a.ID] = m.Prob.AddCol("TOA"+tag, 0, tm, 0)
		m.TCS[a.ID] = m.Prob.AddCol("TCS"+tag, 0, tm, 0)
		m.TCE[a.ID] = m.Prob.AddCol("TCE"+tag, 0, tm, 0)
		m.TIA[a.ID] = m.Prob.AddCol("TIA"+tag, 0, tm, 0)
	}
	m.TF = m.Prob.AddCol("TF", 0, tm, 0)
}

// arcTag renders the paper's i_{a,b} label for an arc.
func (m *Model) arcTag(a taskgraph.Arc) string {
	return fmt.Sprintf("(i%d,%d)", int(a.Dst)+1, a.DstPort)
}

// hostedBy inverts Instances.Capable: the subtasks each instance can run,
// ascending. These are exactly the pairs that own a σ column, so a row
// over an instance's σ terms walks its list instead of probing Sigma for
// every subtask.
func hostedBy(g *taskgraph.Graph, pool *arch.Instances) [][]taskgraph.SubtaskID {
	hosted := make([][]taskgraph.SubtaskID, pool.NumProcs())
	for _, s := range g.Subtasks() {
		for _, d := range pool.Capable(s.ID) {
			hosted[d] = append(hosted[d], s.ID)
		}
	}
	return hosted
}

// addMappingCols creates σ, γ, δ (and π for topologies with pair-dependent
// delays).
func (m *Model) addMappingCols() {
	g, pool := m.Graph, m.Pool
	for _, s := range g.Subtasks() {
		for _, d := range pool.Capable(s.ID) {
			k := sigmaKey{d, s.ID}
			m.Sigma[k] = m.Prob.AddCol(
				fmt.Sprintf("sigma(%s,%s)", pool.Proc(d).Name, s.Name), 0, 1, 0)
			m.branch = append(m.branch, m.Sigma[k])
		}
	}
	m.Gamma = make([]lp.ColID, g.NumArcs())
	for _, a := range g.Arcs() {
		m.Gamma[a.ID] = m.Prob.AddCol("gamma"+m.arcTag(a), 0, 1, 0)
		for _, d := range m.sharedProcs(a.Src, a.Dst) {
			m.Delta[deltaKey{a.ID, d}] = m.Prob.AddCol(
				fmt.Sprintf("delta%s[%s]", m.arcTag(a), m.Pool.Proc(d).Name), 0, 1, 0)
		}
	}
	if m.pairDelays() {
		for _, a := range g.Arcs() {
			for _, d1 := range pool.Capable(a.Src) {
				for _, d2 := range pool.Capable(a.Dst) {
					if d1 == d2 {
						continue
					}
					m.Pi[piKey{a.ID, d1, d2}] = m.Prob.AddCol(
						fmt.Sprintf("pi%s[%s,%s]", m.arcTag(a), pool.Proc(d1).Name, pool.Proc(d2).Name), 0, 1, 0)
				}
			}
		}
	}
}

// pairDelays reports whether the topology's remote delay depends on the
// processor pair (true for ring), requiring π product columns in the
// transfer-end constraint.
func (m *Model) pairDelays() bool {
	lib := m.Pool.Library()
	n := m.Pool.NumProcs()
	ref := math.NaN()
	for d1 := 0; d1 < n; d1++ {
		for d2 := 0; d2 < n; d2++ {
			if d1 == d2 {
				continue
			}
			dl := m.Topo.DelayPerUnit(lib, n, arch.ProcID(d1), arch.ProcID(d2))
			if math.IsNaN(ref) {
				ref = dl
			} else if dl != ref {
				return true
			}
		}
	}
	return false
}

// sharedProcs returns instances capable of both subtasks, ascending.
func (m *Model) sharedProcs(a1, a2 taskgraph.SubtaskID) []arch.ProcID {
	var out []arch.ProcID
	for _, d := range m.Pool.Capable(a1) {
		if m.Pool.CanRun(d, a2) {
			out = append(out, d)
		}
	}
	return out
}

// addOrderingCols creates α (subtask-pair order), φ (transfer-pair order),
// and the no-overlap extension's ψ/θ.
func (m *Model) addOrderingCols() {
	g := m.Graph
	for a1 := 0; a1 < g.NumSubtasks(); a1++ {
		for a2 := a1 + 1; a2 < g.NumSubtasks(); a2++ {
			s1, s2 := taskgraph.SubtaskID(a1), taskgraph.SubtaskID(a2)
			if len(m.sharedProcs(s1, s2)) == 0 {
				continue
			}
			// A pair whose dataflow already forces completion-before-start
			// cannot overlap, so it needs no ordering variable.
			if g.StrictlyOrdered(s1, s2) || g.StrictlyOrdered(s2, s1) {
				continue
			}
			k := pairKey{a1, a2}
			m.Alpha[k] = m.Prob.AddCol(fmt.Sprintf("alpha(S%d,S%d)", a1+1, a2+1), 0, 1, 0)
			m.branch = append(m.branch, m.Alpha[k])
		}
	}
	for e1 := 0; e1 < g.NumArcs(); e1++ {
		for e2 := e1 + 1; e2 < g.NumArcs(); e2++ {
			if len(m.conflictCombos(taskgraph.ArcID(e1), taskgraph.ArcID(e2))) == 0 {
				continue
			}
			k := pairKey{e1, e2}
			m.Phi[k] = m.Prob.AddCol(fmt.Sprintf("phi(e%d,e%d)", e1, e2), 0, 1, 0)
			m.branch = append(m.branch, m.Phi[k])
		}
	}
	if m.Opts.NoOverlapIO {
		m.addNoOverlapCols()
	}
}

// conflictCombo is one way two transfers can contend for a communication
// resource: a mapping of their endpoint subtasks to processors under which
// the transfers' paths intersect. Sigmas is the deduplicated set of σ
// columns that must all be 1 for the combo to be active.
type conflictCombo struct {
	Sigmas []lp.ColID
}

// conflictCombos enumerates the resource-conflict activation combos for two
// distinct arcs. For point-to-point links both transfers must use the same
// ordered processor pair; for the bus any two remote transfers conflict
// (signaled by an empty single combo — activation then uses γ instead of
// σ); for the ring any two cross pairs with intersecting segment paths
// conflict.
func (m *Model) conflictCombos(e1, e2 taskgraph.ArcID) []conflictCombo {
	g, pool := m.Graph, m.Pool
	a1, a2 := g.Arc(e1), g.Arc(e2)
	n := pool.NumProcs()

	if m.Topo.NumLinks(n) == 1 {
		// Single shared resource (bus, shared memory): any two remote
		// transfers conflict; activation uses γ rather than σ products.
		return []conflictCombo{{Sigmas: nil}}
	}

	var combos []conflictCombo
	for _, d1 := range pool.Capable(a1.Src) {
		for _, d2 := range pool.Capable(a1.Dst) {
			if d1 == d2 {
				continue
			}
			p1 := m.Topo.Path(n, d1, d2)
			for _, d3 := range pool.Capable(a2.Src) {
				for _, d4 := range pool.Capable(a2.Dst) {
					if d3 == d4 {
						continue
					}
					// Mapping consistency: a subtask shared between the two
					// arcs must sit on one processor.
					if a1.Src == a2.Src && d1 != d3 {
						continue
					}
					if a1.Dst == a2.Dst && d2 != d4 {
						continue
					}
					if a1.Src == a2.Dst && d1 != d4 {
						continue
					}
					if a1.Dst == a2.Src && d2 != d3 {
						continue
					}
					if !pathsIntersect(p1, m.Topo.Path(n, d3, d4)) {
						continue
					}
					set := map[sigmaKey]bool{
						{d1, a1.Src}: true,
						{d2, a1.Dst}: true,
						{d3, a2.Src}: true,
						{d4, a2.Dst}: true,
					}
					var sigmas []lp.ColID
					ok := true
					for k := range set {
						col, exists := m.Sigma[k]
						if !exists {
							ok = false
							break
						}
						sigmas = append(sigmas, col)
					}
					if ok {
						// Deterministic term order despite the map dedup.
						sort.Slice(sigmas, func(a, b int) bool { return sigmas[a] < sigmas[b] })
						combos = append(combos, conflictCombo{Sigmas: sigmas})
					}
				}
			}
		}
	}
	return combos
}

func pathsIntersect(p1, p2 []arch.LinkID) bool {
	for _, l1 := range p1 {
		for _, l2 := range p2 {
			if l1 == l2 {
				return true
			}
		}
	}
	return false
}

// addNoOverlapCols creates ψ (transfer-vs-subtask order) and θ
// (transfer-vs-transfer processor order) for the §5 no-I/O-overlap variant.
func (m *Model) addNoOverlapCols() {
	g := m.Graph
	for _, a := range g.Arcs() {
		for _, s := range g.Subtasks() {
			if s.ID == a.Src || s.ID == a.Dst {
				continue
			}
			if len(m.sharedProcs(a.Src, s.ID)) == 0 && len(m.sharedProcs(a.Dst, s.ID)) == 0 {
				continue
			}
			k := psiKey{a.ID, s.ID}
			m.Psi[k] = m.Prob.AddCol(fmt.Sprintf("psi(e%d,%s)", a.ID, s.Name), 0, 1, 0)
			m.branch = append(m.branch, m.Psi[k])
		}
	}
	for e1 := 0; e1 < g.NumArcs(); e1++ {
		for e2 := e1 + 1; e2 < g.NumArcs(); e2++ {
			if len(m.procConflictCombos(taskgraph.ArcID(e1), taskgraph.ArcID(e2))) == 0 {
				continue
			}
			k := pairKey{e1, e2}
			m.Theta[k] = m.Prob.AddCol(fmt.Sprintf("theta(e%d,e%d)", e1, e2), 0, 1, 0)
			m.branch = append(m.branch, m.Theta[k])
		}
	}
}

// procConflictCombos enumerates ways two remote transfers can contend for a
// processor in the no-overlap variant: some endpoint subtask of e1 and some
// endpoint subtask of e2 mapped to the same instance.
func (m *Model) procConflictCombos(e1, e2 taskgraph.ArcID) []conflictCombo {
	g := m.Graph
	a1, a2 := g.Arc(e1), g.Arc(e2)
	var combos []conflictCombo
	for _, side1 := range []taskgraph.SubtaskID{a1.Src, a1.Dst} {
		for _, side2 := range []taskgraph.SubtaskID{a2.Src, a2.Dst} {
			if side1 == side2 {
				// Same subtask: both transfers touch its processor
				// wherever it is; a single σ activates the combo per proc.
				for _, d := range m.Pool.Capable(side1) {
					combos = append(combos, conflictCombo{Sigmas: []lp.ColID{m.Sigma[sigmaKey{d, side1}]}})
				}
				continue
			}
			for _, d := range m.sharedProcs(side1, side2) {
				combos = append(combos, conflictCombo{Sigmas: []lp.ColID{
					m.Sigma[sigmaKey{d, side1}], m.Sigma[sigmaKey{d, side2}],
				}})
			}
		}
	}
	return combos
}

// addResourceCols creates β, χ, and memory columns.
func (m *Model) addResourceCols() {
	pool := m.Pool
	m.Beta = make([]lp.ColID, pool.NumProcs())
	for _, p := range pool.Procs() {
		m.Beta[p.ID] = m.Prob.AddCol(fmt.Sprintf("beta(%s)", p.Name), 0, 1, 0)
	}
	// χ only for resources some remote transfer could use.
	n := pool.NumProcs()
	for _, a := range m.Graph.Arcs() {
		for _, d1 := range pool.Capable(a.Src) {
			for _, d2 := range pool.Capable(a.Dst) {
				if d1 == d2 {
					continue
				}
				for _, l := range m.Topo.Path(n, d1, d2) {
					if _, ok := m.Chi[l]; !ok {
						m.Chi[l] = m.Prob.AddCol("chi["+m.Topo.LinkName(pool, l)+"]", 0, 1, 0)
					}
				}
			}
		}
	}
	if m.Opts.Memory {
		m.MemD = make([]lp.ColID, pool.NumProcs())
		for _, p := range pool.Procs() {
			m.MemD[p.ID] = m.Prob.AddCol(fmt.Sprintf("M(%s)", p.Name), 0, math.Inf(1), 0)
		}
	}
}

// addMappingRows emits (3.3.1) processor selection, the γ/δ linearization
// (3.4.14)–(3.4.16) plus the exactness cut, and the π product rows.
func (m *Model) addMappingRows() {
	g, pool := m.Graph, m.Pool
	for _, s := range g.Subtasks() {
		terms := make([]lp.Term, 0, 4)
		for _, d := range pool.Capable(s.ID) {
			terms = append(terms, lp.Term{Col: m.Sigma[sigmaKey{d, s.ID}], Coef: 1})
		}
		m.Prob.AddRow(fmt.Sprintf("select(%s)", s.Name), lp.Eq, 1, terms...)
	}
	for _, a := range g.Arcs() {
		tag := m.arcTag(a)
		// (3.4.14): γ + Σ_d δ = 1.
		terms := []lp.Term{{Col: m.Gamma[a.ID], Coef: 1}}
		for _, d := range m.sharedProcs(a.Src, a.Dst) {
			dcol := m.Delta[deltaKey{a.ID, d}]
			terms = append(terms, lp.Term{Col: dcol, Coef: 1})
			s1 := m.Sigma[sigmaKey{d, a.Src}]
			s2 := m.Sigma[sigmaKey{d, a.Dst}]
			// (3.4.15)/(3.4.16): δ ≤ σ_src, δ ≤ σ_dst.
			m.Prob.AddRow("delta-le-src"+tag, lp.Le, 0, lp.Term{Col: dcol, Coef: 1}, lp.Term{Col: s1, Coef: -1})
			m.Prob.AddRow("delta-le-dst"+tag, lp.Le, 0, lp.Term{Col: dcol, Coef: 1}, lp.Term{Col: s2, Coef: -1})
			// Exactness cut (see DESIGN.md): δ ≥ σ_src + σ_dst − 1.
			m.Prob.AddRow("delta-ge"+tag, lp.Ge, -1,
				lp.Term{Col: dcol, Coef: 1}, lp.Term{Col: s1, Coef: -1}, lp.Term{Col: s2, Coef: -1})
		}
		m.Prob.AddRow("transfer-type"+tag, lp.Eq, 1, terms...)
	}
	piKeys := make([]piKey, 0, len(m.Pi))
	for k := range m.Pi {
		piKeys = append(piKeys, k)
	}
	sort.Slice(piKeys, func(i, j int) bool {
		a, b := piKeys[i], piKeys[j]
		if a.Arc != b.Arc {
			return a.Arc < b.Arc
		}
		if a.D1 != b.D1 {
			return a.D1 < b.D1
		}
		return a.D2 < b.D2
	})
	for _, k := range piKeys {
		pcol := m.Pi[k]
		a := g.Arc(k.Arc)
		s1 := m.Sigma[sigmaKey{k.D1, a.Src}]
		s2 := m.Sigma[sigmaKey{k.D2, a.Dst}]
		m.Prob.AddRow("pi-le-src", lp.Le, 0, lp.Term{Col: pcol, Coef: 1}, lp.Term{Col: s1, Coef: -1})
		m.Prob.AddRow("pi-le-dst", lp.Le, 0, lp.Term{Col: pcol, Coef: 1}, lp.Term{Col: s2, Coef: -1})
		m.Prob.AddRow("pi-ge", lp.Ge, -1,
			lp.Term{Col: pcol, Coef: 1}, lp.Term{Col: s1, Coef: -1}, lp.Term{Col: s2, Coef: -1})
	}
}

// addTimingRows emits the event-timing constraint families (3.3.3)–(3.3.8)
// and the finish-time rows (3.3.11).
func (m *Model) addTimingRows(hosted [][]taskgraph.SubtaskID) {
	g := m.Graph
	lib := m.Pool.Library()
	for _, s := range g.Subtasks() {
		// (3.3.6): TSE = TSS + Σ_d σ·D_PS.
		terms := []lp.Term{{Col: m.TSE[s.ID], Coef: 1}, {Col: m.TSS[s.ID], Coef: -1}}
		for _, d := range m.Pool.Capable(s.ID) {
			terms = append(terms, lp.Term{Col: m.Sigma[sigmaKey{d, s.ID}], Coef: -m.Pool.Exec(d, s.ID)})
		}
		m.Prob.AddRow(fmt.Sprintf("exec-end(%s)", s.Name), lp.Eq, 0, terms...)
		// (3.3.11): TF ≥ TSE.
		m.Prob.AddRow(fmt.Sprintf("finish(%s)", s.Name), lp.Ge, 0,
			lp.Term{Col: m.TF, Coef: 1}, lp.Term{Col: m.TSE[s.ID], Coef: -1})
	}
	if !m.Opts.NoLoadCuts {
		// Valid inequality: every instance's committed execution load is a
		// lower bound on the finish time (its subtasks run serially).
		for _, p := range m.Pool.Procs() {
			if len(hosted[p.ID]) == 0 {
				continue
			}
			terms := []lp.Term{{Col: m.TF, Coef: 1}}
			for _, s := range hosted[p.ID] {
				terms = append(terms, lp.Term{Col: m.Sigma[sigmaKey{p.ID, s}], Coef: -m.Pool.Exec(p.ID, s)})
			}
			m.Prob.AddRow(fmt.Sprintf("proc-load(%s)", p.Name), lp.Ge, 0, terms...)
		}
	}
	for _, a := range g.Arcs() {
		tag := m.arcTag(a)
		// (3.3.4): TOA = TSS(src) + f_A·(TSE−TSS)  ⇔  TOA − (1−f_A)TSS − f_A·TSE = 0.
		m.Prob.AddRow("out-avail"+tag, lp.Eq, 0,
			lp.Term{Col: m.TOA[a.ID], Coef: 1},
			lp.Term{Col: m.TSS[a.Src], Coef: -(1 - a.FA)},
			lp.Term{Col: m.TSE[a.Src], Coef: -a.FA})
		// (3.3.7): TCS ≥ TOA.
		m.Prob.AddRow("xfer-start"+tag, lp.Ge, 0,
			lp.Term{Col: m.TCS[a.ID], Coef: 1}, lp.Term{Col: m.TOA[a.ID], Coef: -1})
		// (3.3.8): transfer duration.
		if !m.pairDelaysCached() {
			// Uniform remote delay: TCE − TCS − (D_CR−D_CL)·V·γ = D_CL·V.
			dcr := m.uniformRemoteDelay()
			m.Prob.AddRow("xfer-end"+tag, lp.Eq, lib.LocalDelay*a.Volume,
				lp.Term{Col: m.TCE[a.ID], Coef: 1},
				lp.Term{Col: m.TCS[a.ID], Coef: -1},
				lp.Term{Col: m.Gamma[a.ID], Coef: -(dcr - lib.LocalDelay) * a.Volume})
		} else {
			// Pair-dependent delay (ring): TCE − TCS + D_CL·V·γ − Σ D(d1,d2)·V·π = D_CL·V.
			terms := []lp.Term{
				{Col: m.TCE[a.ID], Coef: 1},
				{Col: m.TCS[a.ID], Coef: -1},
				{Col: m.Gamma[a.ID], Coef: lib.LocalDelay * a.Volume},
			}
			n := m.Pool.NumProcs()
			for _, d1 := range m.Pool.Capable(a.Src) {
				for _, d2 := range m.Pool.Capable(a.Dst) {
					if d1 == d2 {
						continue
					}
					dl := m.Topo.DelayPerUnit(lib, n, d1, d2) * a.Volume
					terms = append(terms, lp.Term{Col: m.Pi[piKey{a.ID, d1, d2}], Coef: -dl})
				}
			}
			m.Prob.AddRow("xfer-end"+tag, lp.Eq, lib.LocalDelay*a.Volume, terms...)
		}
		// (3.3.3): TIA = TCE.
		m.Prob.AddRow("in-avail"+tag, lp.Eq, 0,
			lp.Term{Col: m.TIA[a.ID], Coef: 1}, lp.Term{Col: m.TCE[a.ID], Coef: -1})
		// (3.3.5): TIA ≤ TSS(dst) + f_R·(TSE−TSS)  (f_A in the paper is a typo).
		m.Prob.AddRow("start-after-input"+tag, lp.Le, 0,
			lp.Term{Col: m.TIA[a.ID], Coef: 1},
			lp.Term{Col: m.TSS[a.Dst], Coef: -(1 - a.FR)},
			lp.Term{Col: m.TSE[a.Dst], Coef: -a.FR})
	}
	if m.Opts.NoOverlapIO {
		m.addNoOverlapTimingRows()
	}
}

// uniformRemoteDelay returns the (pair-independent) remote delay per unit.
func (m *Model) uniformRemoteDelay() float64 {
	return m.Topo.DelayPerUnit(m.Pool.Library(), m.Pool.NumProcs(), 0, 1)
}

// pairDelaysCached memoizes pairDelays for row generation.
func (m *Model) pairDelaysCached() bool {
	return len(m.Pi) > 0
}

// sortedPairKeys returns the map's keys in (A,B) order. Row-emission loops
// iterate keys through this instead of ranging the map directly: the row
// ORDER of the built problem must not depend on Go's randomized map
// iteration, or simplex pivot sequences (and with them solve times and
// telemetry counters) change from process to process on the same input.
func sortedPairKeys(m map[pairKey]lp.ColID) []pairKey {
	keys := make([]pairKey, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].A != keys[j].A {
			return keys[i].A < keys[j].A
		}
		return keys[i].B < keys[j].B
	})
	return keys
}

func sortedLinkIDs(m map[arch.LinkID]lp.ColID) []arch.LinkID {
	keys := make([]arch.LinkID, 0, len(m))
	for l := range m {
		keys = append(keys, l)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

func sortedPsiKeys(m map[psiKey]lp.ColID) []psiKey {
	keys := make([]psiKey, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Arc != keys[j].Arc {
			return keys[i].Arc < keys[j].Arc
		}
		return keys[i].Task < keys[j].Task
	})
	return keys
}

// addExclusionRows emits processor-usage exclusion (3.4.17)/(3.4.18) and
// communication-resource exclusion (3.4.19)/(3.4.20), generalized over
// topologies.
func (m *Model) addExclusionRows() {
	tm := m.TM
	// Processor exclusion, per α pair and shared instance.
	for _, k := range sortedPairKeys(m.Alpha) {
		acol := m.Alpha[k]
		s1, s2 := taskgraph.SubtaskID(k.A), taskgraph.SubtaskID(k.B)
		for _, d := range m.sharedProcs(s1, s2) {
			sig1 := m.Sigma[sigmaKey{d, s1}]
			sig2 := m.Sigma[sigmaKey{d, s2}]
			// α=1 ⇒ s1 first: TSS(s2) ≥ TSE(s1) − (3−α−σ1−σ2)·T_M.
			m.Prob.AddRow(fmt.Sprintf("pexcl(S%d<S%d,%s)", k.A+1, k.B+1, m.Pool.Proc(d).Name), lp.Ge, -3*tm,
				lp.Term{Col: m.TSS[s2], Coef: 1}, lp.Term{Col: m.TSE[s1], Coef: -1},
				lp.Term{Col: acol, Coef: -tm}, lp.Term{Col: sig1, Coef: -tm}, lp.Term{Col: sig2, Coef: -tm})
			// α=0 ⇒ s2 first: TSS(s1) ≥ TSE(s2) − (2+α−σ1−σ2)·T_M.
			m.Prob.AddRow(fmt.Sprintf("pexcl(S%d>S%d,%s)", k.A+1, k.B+1, m.Pool.Proc(d).Name), lp.Ge, -2*tm,
				lp.Term{Col: m.TSS[s1], Coef: 1}, lp.Term{Col: m.TSE[s2], Coef: -1},
				lp.Term{Col: acol, Coef: tm}, lp.Term{Col: sig1, Coef: -tm}, lp.Term{Col: sig2, Coef: -tm})
		}
	}
	// Communication-resource exclusion, per φ pair and conflict combo.
	shared1 := m.Topo.NumLinks(m.Pool.NumProcs()) == 1
	for _, k := range sortedPairKeys(m.Phi) {
		pcol := m.Phi[k]
		e1, e2 := taskgraph.ArcID(k.A), taskgraph.ArcID(k.B)
		for ci, combo := range m.conflictCombos(e1, e2) {
			var act []lp.Term // activation terms, all must be 1
			if shared1 {
				act = []lp.Term{{Col: m.Gamma[e1], Coef: 1}, {Col: m.Gamma[e2], Coef: 1}}
			} else {
				for _, s := range combo.Sigmas {
					act = append(act, lp.Term{Col: s, Coef: 1})
				}
			}
			kk := float64(len(act))
			// φ=1 ⇒ e1 first: TCS(e2) ≥ TCE(e1) − (k+1−φ−Σact)·T_M.
			terms := []lp.Term{
				{Col: m.TCS[e2], Coef: 1}, {Col: m.TCE[e1], Coef: -1},
				{Col: pcol, Coef: -tm},
			}
			for _, t := range act {
				terms = append(terms, lp.Term{Col: t.Col, Coef: -tm})
			}
			m.Prob.AddRow(fmt.Sprintf("lexcl(e%d<e%d,%d)", k.A, k.B, ci), lp.Ge, -(kk+1)*tm, terms...)
			// φ=0 ⇒ e2 first: TCS(e1) ≥ TCE(e2) − (k+φ−Σact)·T_M.
			terms = []lp.Term{
				{Col: m.TCS[e1], Coef: 1}, {Col: m.TCE[e2], Coef: -1},
				{Col: pcol, Coef: tm},
			}
			for _, t := range act {
				terms = append(terms, lp.Term{Col: t.Col, Coef: -tm})
			}
			m.Prob.AddRow(fmt.Sprintf("lexcl(e%d>e%d,%d)", k.A, k.B, ci), lp.Ge, -kk*tm, terms...)
		}
	}
}

// addNoOverlapTimingRows emits the §5 no-I/O-overlap variant rows.
func (m *Model) addNoOverlapTimingRows() {
	g, tm := m.Graph, m.TM
	for _, a := range g.Arcs() {
		tag := m.arcTag(a)
		// A remote transfer occupies the source processor, which is busy
		// executing the source subtask until TSE: TCS ≥ TSE(src) − (1−γ)T_M.
		m.Prob.AddRow("noio-src"+tag, lp.Ge, -tm,
			lp.Term{Col: m.TCS[a.ID], Coef: 1},
			lp.Term{Col: m.TSE[a.Src], Coef: -1},
			lp.Term{Col: m.Gamma[a.ID], Coef: -tm})
		// ...and the destination processor before the consumer starts:
		// TSS(dst) ≥ TCE − (1−γ)T_M.
		m.Prob.AddRow("noio-dst"+tag, lp.Ge, -tm,
			lp.Term{Col: m.TSS[a.Dst], Coef: 1},
			lp.Term{Col: m.TCE[a.ID], Coef: -1},
			lp.Term{Col: m.Gamma[a.ID], Coef: -tm})
	}
	// Transfer vs third-party subtask exclusion via ψ.
	for _, k := range sortedPsiKeys(m.Psi) {
		psiCol := m.Psi[k]
		a := g.Arc(k.Arc)
		for _, side := range []taskgraph.SubtaskID{a.Src, a.Dst} {
			for _, d := range m.sharedProcs(side, k.Task) {
				sigSide := m.Sigma[sigmaKey{d, side}]
				sigTask := m.Sigma[sigmaKey{d, k.Task}]
				// ψ=1 ⇒ transfer first: TSS(task) ≥ TCE − (4−ψ−γ−σside−σtask)T_M.
				m.Prob.AddRow("noio-psi1", lp.Ge, -4*tm,
					lp.Term{Col: m.TSS[k.Task], Coef: 1},
					lp.Term{Col: m.TCE[a.ID], Coef: -1},
					lp.Term{Col: psiCol, Coef: -tm},
					lp.Term{Col: m.Gamma[a.ID], Coef: -tm},
					lp.Term{Col: sigSide, Coef: -tm},
					lp.Term{Col: sigTask, Coef: -tm})
				// ψ=0 ⇒ task first: TCS ≥ TSE(task) − (3+ψ−γ−σside−σtask)T_M.
				m.Prob.AddRow("noio-psi0", lp.Ge, -3*tm,
					lp.Term{Col: m.TCS[a.ID], Coef: 1},
					lp.Term{Col: m.TSE[k.Task], Coef: -1},
					lp.Term{Col: psiCol, Coef: tm},
					lp.Term{Col: m.Gamma[a.ID], Coef: -tm},
					lp.Term{Col: sigSide, Coef: -tm},
					lp.Term{Col: sigTask, Coef: -tm})
			}
		}
	}
	// Transfer vs transfer processor exclusion via θ.
	for _, k := range sortedPairKeys(m.Theta) {
		thCol := m.Theta[k]
		e1, e2 := taskgraph.ArcID(k.A), taskgraph.ArcID(k.B)
		for ci, combo := range m.procConflictCombos(e1, e2) {
			kk := float64(len(combo.Sigmas)) + 2 // + the two γ activations
			t1 := []lp.Term{
				{Col: m.TCS[e2], Coef: 1}, {Col: m.TCE[e1], Coef: -1},
				{Col: thCol, Coef: -tm},
				{Col: m.Gamma[e1], Coef: -tm}, {Col: m.Gamma[e2], Coef: -tm},
			}
			t2 := []lp.Term{
				{Col: m.TCS[e1], Coef: 1}, {Col: m.TCE[e2], Coef: -1},
				{Col: thCol, Coef: tm},
				{Col: m.Gamma[e1], Coef: -tm}, {Col: m.Gamma[e2], Coef: -tm},
			}
			for _, s := range combo.Sigmas {
				t1 = append(t1, lp.Term{Col: s, Coef: -tm})
				t2 = append(t2, lp.Term{Col: s, Coef: -tm})
			}
			m.Prob.AddRow(fmt.Sprintf("noio-theta1(%d,%d,%d)", k.A, k.B, ci), lp.Ge, -(kk+1)*tm, t1...)
			m.Prob.AddRow(fmt.Sprintf("noio-theta0(%d,%d,%d)", k.A, k.B, ci), lp.Ge, -kk*tm, t2...)
		}
	}
}

// addResourceRows emits β/χ coupling (3.3.12)/(3.4.21), memory sizing, and
// symmetry-breaking rows.
func (m *Model) addResourceRows(hosted [][]taskgraph.SubtaskID) {
	g, pool := m.Graph, m.Pool
	n := pool.NumProcs()
	for _, p := range pool.Procs() {
		var used []lp.Term
		for _, s := range hosted[p.ID] {
			col := m.Sigma[sigmaKey{p.ID, s}]
			// (3.3.12): β ≥ σ.
			m.Prob.AddRow(fmt.Sprintf("beta-ge(%s,%s)", p.Name, g.Subtask(s).Name), lp.Ge, 0,
				lp.Term{Col: m.Beta[p.ID], Coef: 1}, lp.Term{Col: col, Coef: -1})
			used = append(used, lp.Term{Col: col, Coef: 1})
		}
		// Tightening: a processor is selected only if used, so the
		// extracted design never lists phantom instances.
		terms := append([]lp.Term{{Col: m.Beta[p.ID], Coef: -1}}, used...)
		m.Prob.AddRow(fmt.Sprintf("beta-le(%s)", p.Name), lp.Ge, 0, terms...)
	}
	// (3.4.21) generalized: χ_l ≥ σ_{d1,src} + σ_{d2,dst} − 1 for every
	// resource on the transfer's path.
	for _, a := range g.Arcs() {
		for _, d1 := range pool.Capable(a.Src) {
			for _, d2 := range pool.Capable(a.Dst) {
				if d1 == d2 {
					continue
				}
				s1 := m.Sigma[sigmaKey{d1, a.Src}]
				s2 := m.Sigma[sigmaKey{d2, a.Dst}]
				for _, l := range m.Topo.Path(n, d1, d2) {
					m.Prob.AddRow("chi-ge", lp.Ge, -1,
						lp.Term{Col: m.Chi[l], Coef: 1},
						lp.Term{Col: s1, Coef: -1}, lp.Term{Col: s2, Coef: -1})
				}
			}
		}
	}
	if m.Opts.Memory {
		for _, p := range pool.Procs() {
			terms := []lp.Term{{Col: m.MemD[p.ID], Coef: 1}}
			for _, s := range hosted[p.ID] {
				if mem := g.Subtask(s).Mem; mem != 0 {
					terms = append(terms, lp.Term{Col: m.Sigma[sigmaKey{p.ID, s}], Coef: -mem})
				}
			}
			m.Prob.AddRow(fmt.Sprintf("mem(%s)", p.Name), lp.Eq, 0, terms...)
		}
	}
	// Symmetry breaking: instances of a type are interchangeable except
	// under ring (position matters), so order their selection.
	if !m.Opts.NoSymmetryBreaking {
		if _, isRing := m.Topo.(arch.Ring); !isRing {
			for _, group := range pool.SameType() {
				for i := 0; i+1 < len(group); i++ {
					m.Prob.AddRow(fmt.Sprintf("sym(%s>=%s)", pool.Proc(group[i]).Name, pool.Proc(group[i+1]).Name),
						lp.Ge, 0,
						lp.Term{Col: m.Beta[group[i]], Coef: 1},
						lp.Term{Col: m.Beta[group[i+1]], Coef: -1})
				}
			}
		}
	}
}

// costTerms returns the total-system-cost expression: Σ β·C_d + Σ χ·C_link
// (+ Σ C_M·M_d with the memory extension).
func (m *Model) costTerms() []lp.Term {
	lib := m.Pool.Library()
	var terms []lp.Term
	for _, p := range m.Pool.Procs() {
		if c := m.Pool.Cost(p.ID); c != 0 {
			terms = append(terms, lp.Term{Col: m.Beta[p.ID], Coef: c})
		}
	}
	for _, l := range sortedLinkIDs(m.Chi) {
		if c := m.Topo.LinkCost(lib, l); c != 0 {
			terms = append(terms, lp.Term{Col: m.Chi[l], Coef: c})
		}
	}
	if m.Opts.Memory && lib.MemCostPerUnit > 0 {
		for _, p := range m.Pool.Procs() {
			terms = append(terms, lp.Term{Col: m.MemD[p.ID], Coef: lib.MemCostPerUnit})
		}
	}
	return terms
}

// addObjective installs the objective function and its companion
// constraint (cost cap or deadline).
func (m *Model) addObjective() {
	switch m.Opts.Objective {
	case MinMakespan:
		m.Prob.SetObj(m.TF, 1)
		if m.Opts.CostCap > 0 {
			m.capRow = m.Prob.AddRow("cost-cap", lp.Le, m.Opts.CostCap, m.costTerms()...)
		}
	case MinCost:
		for _, t := range m.costTerms() {
			m.Prob.SetObj(t.Col, t.Coef)
		}
		m.deadlineRow = m.Prob.AddRow("deadline", lp.Le, m.Opts.Deadline, lp.Term{Col: m.TF, Coef: 1})
	}
}

// tightenBounds sets valid lower bounds on event times: the earliest start
// and end of each subtask assuming every subtask runs at its fastest
// capable processor and all communication is free. An input's f_R grace
// lets its consumer start up to f_R of its own duration before the input
// arrives. That duration is fixed only by the mapping, so the start bound
// subtracts f_R times the consumer's longest capable duration: it must hold
// under every mapping, including the one that puts the consumer on its
// slowest processor. The end bound needs no such allowance, since
// TSE = TSS + dur ≥ avail + (1−f_R)·dur holds with the shortest duration.
// These are classic critical-path bounds and cut the LP relaxation without
// excluding any feasible schedule.
func (m *Model) tightenBounds() {
	g := m.Graph
	durMin := func(a taskgraph.SubtaskID) float64 {
		best := math.Inf(1)
		for _, d := range m.Pool.Capable(a) {
			if e := m.Pool.Exec(d, a); e < best {
				best = e
			}
		}
		return best
	}
	durMax := func(a taskgraph.SubtaskID) float64 {
		longest := 0.0
		for _, d := range m.Pool.Capable(a) {
			longest = math.Max(longest, m.Pool.Exec(d, a))
		}
		return longest
	}
	order, err := g.TopoOrder()
	if err != nil {
		return
	}
	est := make([]float64, g.NumSubtasks()) // earliest TSS
	eet := make([]float64, g.NumSubtasks()) // earliest TSE
	for _, v := range order {
		short, long := durMin(v), durMax(v)
		for _, aid := range g.In(v) {
			a := g.Arc(aid)
			// Earliest availability of the input minus the f_R grace.
			avail := est[a.Src] + a.FA*durMin(a.Src)
			lo := avail - a.FR*long
			est[v] = math.Max(est[v], lo)
			// avail + (1−f_R)·short, written so that it is lo + short to
			// the bit wherever every capable duration of v is the same.
			eet[v] = math.Max(eet[v], lo+short+a.FR*(long-short))
		}
		eet[v] = math.Max(eet[v], est[v]+short)
	}
	tfLo := 0.0
	for _, v := range order {
		m.Prob.SetBounds(m.TSS[v], est[v], m.TM)
		m.Prob.SetBounds(m.TSE[v], eet[v], m.TM)
		tfLo = math.Max(tfLo, eet[v])
	}
	for _, a := range g.Arcs() {
		lo := est[a.Src] + a.FA*durMin(a.Src)
		m.Prob.SetBounds(m.TOA[a.ID], lo, m.TM)
		m.Prob.SetBounds(m.TCS[a.ID], lo, m.TM)
		m.Prob.SetBounds(m.TCE[a.ID], lo, m.TM)
		m.Prob.SetBounds(m.TIA[a.ID], lo, m.TM)
	}
	m.Prob.SetBounds(m.TF, tfLo, m.TM)
}

// fillStats counts variables and rows for reporting.
func (m *Model) fillStats() {
	s := &m.Stats
	s.TimingVars = len(m.TSS) + len(m.TSE) + len(m.TOA) + len(m.TCS) + len(m.TCE) + len(m.TIA) + 1
	s.BinaryVars = len(m.Sigma) + len(m.Gamma) + len(m.Delta) + len(m.Alpha) +
		len(m.Phi) + len(m.Beta) + len(m.Chi) + len(m.Psi) + len(m.Theta)
	s.BranchVars = len(m.branch)
	s.ContinuousAux = len(m.Pi) + len(m.MemD)
	s.Constraints = m.Prob.NumRows()
	s.Nonzeros = m.Prob.NumNonzeros()
	s.BigM = m.TM
}
