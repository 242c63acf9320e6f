// Package lp implements a two-phase bounded-variable primal simplex solver
// for linear programs, with bound-flipping dual simplex repairs for warm
// re-solves (Resolver). It plays the role of the commercial XLP package
// used by the SOS paper: the branch-and-bound MILP driver (internal/milp)
// calls it to solve the LP relaxation at every node.
//
// One simplex driver (simplex.go) runs over either of two basis
// representations, selected by Options.Kernel: a dense tableau that keeps
// B⁻¹A explicitly (dense.go), and a sparse revised simplex over an LU
// factorization with eta updates (sparse.go, lu.go). Options.Presolve puts
// a reduction pass (presolve.go) in front of either.
//
// Problems have the form
//
//	minimize    c·x
//	subject to  aᵢ·x  (≤ | = | ≥)  bᵢ      for each row i
//	            lbⱼ ≤ xⱼ ≤ ubⱼ             for each column j
//
// Lower bounds must be finite; upper bounds may be +Inf. Variable bounds
// are handled natively by the simplex (nonbasic-at-lower / nonbasic-at-
// upper), so binary variables cost no extra rows.
package lp

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"sos/internal/telemetry"
)

// Sense is the direction of a row constraint.
type Sense int

// Row senses.
const (
	Le Sense = iota // aᵢ·x ≤ bᵢ
	Ge              // aᵢ·x ≥ bᵢ
	Eq              // aᵢ·x = bᵢ
)

func (s Sense) String() string {
	switch s {
	case Le:
		return "<="
	case Ge:
		return ">="
	case Eq:
		return "="
	}
	return "?"
}

// ColID identifies a column (variable) of a Problem.
type ColID int

// Term is one coefficient of a row: Coef * x[Col].
type Term struct {
	Col  ColID
	Coef float64
}

// Col is a structural variable.
type Col struct {
	Name string
	Lb   float64
	Ub   float64
	Obj  float64 // objective coefficient (minimized)
}

// Row is one linear constraint.
type Row struct {
	Name  string
	Sense Sense
	Rhs   float64
	Terms []Term
}

// Problem is a mutable LP under construction. It is not safe for concurrent
// mutation; Solve does not mutate the problem and may be called from
// multiple goroutines.
type Problem struct {
	Name string
	cols []Col
	rows []Row

	// colCache holds the lazily built sparse column view (see columns.go).
	// It is invalidated by structural mutation (AddCol/AddRow) and built at
	// most once between mutations; the view itself is immutable, so clones
	// share it and concurrent solves race only on the atomic pointer.
	colCache atomic.Pointer[colView]
}

// NewProblem creates an empty problem.
func NewProblem(name string) *Problem {
	return &Problem{Name: name}
}

// AddCol adds a variable with the given bounds and objective coefficient,
// returning its ColID.
func (p *Problem) AddCol(name string, lb, ub, obj float64) ColID {
	id := ColID(len(p.cols))
	if name == "" {
		name = fmt.Sprintf("x%d", id)
	}
	p.cols = append(p.cols, Col{Name: name, Lb: lb, Ub: ub, Obj: obj})
	p.colCache.Store(nil)
	return id
}

// SetObj replaces the objective coefficient of a column.
func (p *Problem) SetObj(c ColID, obj float64) { p.cols[c].Obj = obj }

// SetBounds replaces the bounds of a column.
func (p *Problem) SetBounds(c ColID, lb, ub float64) {
	p.cols[c].Lb, p.cols[c].Ub = lb, ub
}

// AddRow adds a constraint. Terms with the same column are summed. Returns
// the row index.
func (p *Problem) AddRow(name string, sense Sense, rhs float64, terms ...Term) int {
	merged := mergeTerms(terms)
	p.rows = append(p.rows, Row{Name: name, Sense: sense, Rhs: rhs, Terms: merged})
	p.colCache.Store(nil)
	return len(p.rows) - 1
}

func mergeTerms(terms []Term) []Term {
	if len(terms) <= 1 {
		return append([]Term(nil), terms...)
	}
	sum := make(map[ColID]float64, len(terms))
	order := make([]ColID, 0, len(terms))
	for _, t := range terms {
		if _, ok := sum[t.Col]; !ok {
			order = append(order, t.Col)
		}
		sum[t.Col] += t.Coef
	}
	out := make([]Term, 0, len(order))
	for _, c := range order {
		if sum[c] != 0 {
			out = append(out, Term{Col: c, Coef: sum[c]})
		}
	}
	return out
}

// SetRowRhs replaces the right-hand side of row i, leaving its sense and
// coefficients untouched. This is the mutation an incremental model layer
// needs to retarget a cap or deadline row without rebuilding the problem.
func (p *Problem) SetRowRhs(i int, rhs float64) { p.rows[i].Rhs = rhs }

// Clone returns an independent copy of the problem: the column and row
// headers are owned by the clone, so bound, objective, and Rhs mutations on
// either side are invisible to the other. The Term slices are shared —
// they are immutable after AddRow (mergeTerms always allocates) — which
// keeps a clone O(rows+cols) instead of O(nonzeros). Solving never mutates
// a Problem, so distinct clones may be solved concurrently.
func (p *Problem) Clone() *Problem {
	q := &Problem{
		Name: p.Name,
		cols: append([]Col(nil), p.cols...),
		rows: append([]Row(nil), p.rows...),
	}
	// The column view depends only on row structure (senses and
	// coefficients), which the clone shares, so the cache carries over.
	q.colCache.Store(p.colCache.Load())
	return q
}

// NumNonzeros returns the number of structural coefficients across all
// rows (the problem's nonzero count).
func (p *Problem) NumNonzeros() int {
	nnz := 0
	for i := range p.rows {
		nnz += len(p.rows[i].Terms)
	}
	return nnz
}

// NumCols returns the number of variables.
func (p *Problem) NumCols() int { return len(p.cols) }

// NumRows returns the number of constraints.
func (p *Problem) NumRows() int { return len(p.rows) }

// Col returns column metadata.
func (p *Problem) Col(c ColID) Col { return p.cols[c] }

// Row returns row metadata.
func (p *Problem) Row(i int) Row { return p.rows[i] }

// Validate checks solvability preconditions: finite lower bounds, lb ≤ ub,
// and in-range term columns.
func (p *Problem) Validate() error {
	for j, c := range p.cols {
		if math.IsInf(c.Lb, -1) || math.IsNaN(c.Lb) {
			return fmt.Errorf("lp %s: column %s has non-finite lower bound", p.Name, c.Name)
		}
		if c.Lb > c.Ub {
			return fmt.Errorf("lp %s: column %s has lb %g > ub %g", p.Name, c.Name, c.Lb, c.Ub)
		}
		_ = j
	}
	for _, r := range p.rows {
		for _, t := range r.Terms {
			if int(t.Col) < 0 || int(t.Col) >= len(p.cols) {
				return fmt.Errorf("lp %s: row %s references unknown column %d", p.Name, r.Name, t.Col)
			}
		}
	}
	return nil
}

// Status is the outcome of a Solve.
type Status int

// Solve outcomes.
const (
	Optimal Status = iota
	Infeasible
	Unbounded
	IterLimit
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterLimit:
		return "iteration-limit"
	}
	return "unknown"
}

// Solution is the result of a Solve.
type Solution struct {
	Status Status
	Obj    float64
	X      []float64 // primal values, indexed by ColID
	Iters  int       // total simplex iterations across both phases

	// ReducedCosts holds the final reduced cost of each structural
	// column (indexed by ColID), populated on Optimal solves. For a
	// nonbasic column at its lower bound the reduced cost is >= 0 and is
	// the rate at which the objective worsens per unit increase;
	// symmetrically (<= 0) at an upper bound. Branch-and-bound uses them
	// for reduced-cost fixing.
	ReducedCosts []float64
}

// Hooks are failpoint injection points for fault testing. All fields are
// consulted only when non-zero, so the nil/zero value (production) costs a
// single pointer check per solve. Hooks let tests force the degraded solver
// paths — warm-start rejection, iteration-cap exits, crashes mid-pivot —
// without build tags or clock games.
type Hooks struct {
	// RejectWarm, when non-nil and returning true, makes Resolver.Solve
	// abandon the warm path for that call and rebuild cold.
	RejectWarm func() bool

	// OnPivot is called at the top of every simplex iteration (both primal
	// phases and the dual repair) with the running iteration count. It may
	// panic to simulate a solver crash mid-pivot, or block/cancel to
	// simulate a stall.
	OnPivot func(iters int)

	// ForceIterLimit, when > 0, caps every solve's iteration budget at the
	// given value, forcing IterLimit exits.
	ForceIterLimit int
}

// Kernel selects the simplex implementation.
type Kernel int

// Kernels.
const (
	// KernelAuto picks the dense tableau below autoSparseThreshold
	// internal dimensions (rows+cols) and the sparse revised simplex
	// above it. Example 1's models stay on the dense path on evidence:
	// their branch and bound is thousands of small warm re-solves, and
	// forcing the sparse kernel there made the paper-milp benchmark pass
	// 1.6–1.9× slower. Example 2's models (~1.6k rows) fall below the
	// threshold too, although the sparse kernel solves their root LP 2.8×
	// faster and their MILPs with about a third less CPU; the threshold
	// is not retuned for them yet (DESIGN.md §11.1). Generated
	// 100+-subtask models cross over to the sparse kernel, whose memory
	// and work grow with the nonzeros instead of rows × columns.
	KernelAuto Kernel = iota
	// KernelDense forces the dense tableau (dense.go).
	KernelDense
	// KernelSparse forces the sparse revised simplex (sparse.go): CSC
	// columns, LU-factorized basis with product-form eta updates and
	// periodic refactorization.
	KernelSparse
)

// autoSparseThreshold is the rows+cols size at which KernelAuto switches
// from the dense tableau to the sparse revised simplex. The paper's
// largest model (Example 2, ~300 columns and ~1.6k rows) stays dense;
// generated series-parallel/fork-join models at 100+ subtasks land well
// above it.
const autoSparseThreshold = 4000

// Options tunes the solver. The zero value gives sensible defaults.
type Options struct {
	// Kernel selects the simplex implementation (default KernelAuto).
	Kernel Kernel

	// Presolve enables the reduction pass (fixed-variable substitution,
	// empty/singleton-row elimination, bound tightening, redundant-row
	// removal) in front of the kernel; solutions are mapped back to the
	// full column space by the postsolve step, so callers see no
	// difference beyond speed. Off by default.
	Presolve bool

	// Deadline, when non-zero, bounds the wall-clock time of a single
	// solve: the kernel polls it every few iterations and exits with
	// IterLimit once passed. Branch and bound threads its own TimeLimit
	// through here so one oversized node relaxation cannot blow the
	// whole search budget.
	Deadline time.Time

	// Done, when non-nil, cancels a solve once closed: the primal loop
	// and the Resolver's dual repair poll it with Deadline and exit with
	// IterLimit. Branch and bound passes its context's Done channel, so
	// a canceled search stops inside its node relaxation.
	Done <-chan struct{}

	// Hooks injects failpoints for fault testing; nil in production.
	Hooks *Hooks

	// Telemetry, when non-nil, receives resolve-level counters and trace
	// events (warm/cold/fallback, pivot counts). Nil costs one pointer
	// check per resolve; it is never consulted per pivot.
	Telemetry *telemetry.Collector
}

// maxIters is the iteration cap of one solve of p: 20000 + 50·(rows+cols),
// or Hooks.ForceIterLimit when set.
func (o *Options) maxIters(p *Problem) int {
	if o.Hooks != nil && o.Hooks.ForceIterLimit > 0 {
		return o.Hooks.ForceIterLimit
	}
	return 20000 + 50*(len(p.rows)+len(p.cols))
}

// kernelFor resolves the effective kernel for p: an explicit choice wins,
// KernelAuto switches on problem size.
func (o *Options) kernelFor(p *Problem) Kernel {
	if o.Kernel != KernelAuto {
		return o.Kernel
	}
	if len(p.rows)+len(p.cols) >= autoSparseThreshold {
		return KernelSparse
	}
	return KernelDense
}

// Solve runs the two-phase bounded simplex and returns the solution. The
// problem itself is not modified. Options.Kernel selects the dense tableau
// or the sparse revised simplex; Options.Presolve runs the reduction pass
// first and maps the reduced solution back. A Solve is the first solve of
// a Resolver that it then discards, so a one-shot solve and a resolver's
// cold solve are one code path, telemetry included.
func (p *Problem) Solve(opts *Options) (*Solution, error) {
	r, err := p.NewResolver(opts)
	if err != nil {
		return nil, err
	}
	// The resolver's Solution is a field of the resolver, so holding it
	// would hold the whole workspace (a dense tableau block); a copy
	// holds only its own slices.
	own := *r.Solve(nil)
	return &own, nil
}
