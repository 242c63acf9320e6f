// Package budget is the home of the solver stack's anytime contract: the
// shared Status taxonomy every engine reports, the typed sentinel error all
// budget/cancel exits wrap, the wall-clock Governor that apportions one
// total budget across the points of a frontier sweep, the Engine type that
// names the synthesis engines, and the degradation Ladder (MILP →
// combinatorial → heuristic) of engines a governed sweep walks when a
// point cannot be closed exactly within its slice.
//
// The package deliberately depends on nothing but the standard library and
// the (equally dependency-free) telemetry collector, so that internal/exact,
// internal/pareto, and the sos facade can all share one taxonomy without
// import cycles.
package budget

import (
	"context"
	"errors"
	"fmt"
	"time"

	"sos/internal/telemetry"
)

// Status classifies the outcome of an anytime solve. Every engine maps its
// exit onto this taxonomy so callers can treat budget exhaustion as a
// quality level instead of a failure.
type Status int

// Statuses, from best to worst certificate.
const (
	// StatusOptimal: the solution is proven optimal.
	StatusOptimal Status = iota
	// StatusFeasible: an incumbent was found but the budget (time, nodes,
	// or cancellation) fired before optimality was proven; Gap quantifies
	// the remaining uncertainty.
	StatusFeasible
	// StatusBudgetExhausted: the budget fired before any incumbent was
	// found. Nothing is known beyond the lower bound.
	StatusBudgetExhausted
	// StatusInfeasible: proven that no solution exists.
	StatusInfeasible
	// StatusCanceled: the context was canceled before any incumbent was
	// found. (A cancellation after an incumbent reports StatusFeasible;
	// the wrapped error carries the cause.)
	StatusCanceled
)

func (s Status) String() string {
	switch s {
	case StatusOptimal:
		return "optimal"
	case StatusFeasible:
		return "feasible"
	case StatusBudgetExhausted:
		return "budget-exhausted"
	case StatusInfeasible:
		return "infeasible"
	case StatusCanceled:
		return "canceled"
	}
	return "unknown"
}

// Proven reports whether the status carries a complete certificate
// (optimality or infeasibility).
func (s Status) Proven() bool { return s == StatusOptimal || s == StatusInfeasible }

// ErrExhausted is the sentinel wrapped by every budget- or cancellation-
// driven early exit; check with errors.Is. When the exit was caused by
// context cancellation the returned errors additionally wrap ctx.Err(), so
// errors.Is(err, context.Canceled) also holds.
var ErrExhausted = errors.New("budget exhausted")

// ErrPanic is the sentinel wrapped by every error a recovered panic
// becomes — in an engine's search workers, in a portfolio rung, at sosd's
// request boundary — so a caller tells a crash from a failure with
// errors.Is, never by matching text.
var ErrPanic = errors.New("panic")

// Exhausted builds the typed error for a budget/cancel exit. The result
// wraps ErrExhausted and, when ctx is non-nil and done, ctx.Err() as well.
func Exhausted(ctx context.Context, format string, args ...any) error {
	msg := fmt.Sprintf(format, args...)
	if ctx != nil && ctx.Err() != nil {
		return fmt.Errorf("%s: %w: %w", msg, ErrExhausted, ctx.Err())
	}
	return fmt.Errorf("%s: %w", msg, ErrExhausted)
}

// Governor apportions one wall-clock budget across the points of a sweep.
// Each Slice is a fixed fraction of the time remaining until the
// governor's deadline, so consecutive slices decay exponentially when fully
// used, while any time a point leaves unused automatically rolls over to
// every later point (the remainder is recomputed from the wall clock, not
// from a ledger). A floor keeps late slices from collapsing to zero; once
// the deadline passes, Slice keeps returning the floor so a degradation
// ladder can still run its terminal (cheap) rungs.
//
// The zero value and a nil *Governor are both valid and mean "unlimited":
// Slice returns 0 (no limit) and Exhausted is always false.
type Governor struct {
	deadline time.Time
	frac     float64       // fraction of remaining time per slice
	floor    time.Duration // minimum slice
	now      func() time.Time
	tel      *telemetry.Collector // optional; records granted slices
}

// Default apportioning policy. Half the remaining budget per point means a
// sweep of n points spends ~(1-2⁻ⁿ) of the budget and the first, hardest
// points (highest caps, largest search spaces) get the largest slices —
// matching how frontier difficulty actually falls as the cap tightens.
const (
	defaultFrac  = 0.5
	defaultFloor = 5 * time.Millisecond
)

// New creates a governor over one total wall-clock budget. total == 0
// yields an unlimited governor (every Slice is 0 = no limit). total < 0 —
// a budget already overdrawn, which multi-tenant apportioning can compute
// when a request's deadline has passed — yields an immediately exhausted
// governor, NOT an unlimited one: Exhausted is true from birth and
// Allowance returns ErrExhausted instead of granting a slice.
func New(total time.Duration) *Governor {
	g := &Governor{frac: defaultFrac, floor: defaultFloor, now: time.Now}
	if total != 0 {
		g.deadline = g.now().Add(max(total, 0))
	}
	return g
}

// Remaining reports the time left before the governor's deadline (0 when
// exhausted; a large positive constant when unlimited).
func (g *Governor) Remaining() time.Duration {
	if g == nil || g.deadline.IsZero() {
		return time.Duration(1<<63 - 1)
	}
	rem := g.deadline.Sub(g.now())
	if rem < 0 {
		return 0
	}
	return rem
}

// Exhausted reports whether the total budget has been consumed.
func (g *Governor) Exhausted() bool {
	return g != nil && !g.deadline.IsZero() && !g.now().Before(g.deadline)
}

// Slice returns the wall-clock allowance for the next solve: a decaying
// fraction of the remaining budget, never below the floor. 0 means
// unlimited (no governor deadline).
func (g *Governor) Slice() time.Duration {
	if g == nil || g.deadline.IsZero() {
		return 0
	}
	s := time.Duration(float64(g.deadline.Sub(g.now())) * g.frac)
	if s < g.floor {
		s = g.floor
	}
	return s
}

// WithTelemetry attaches a collector to the governor: every slice granted
// through Limit is counted and, when tracing, emitted as a slice event whose
// value is the granted allowance in seconds. Returns g for chaining; safe on
// a nil governor (no-op).
func (g *Governor) WithTelemetry(tel *telemetry.Collector) *Governor {
	if g != nil {
		g.tel = tel
	}
	return g
}

// Limit combines a caller-specified per-solve budget with the governor's
// slice: the tighter of the two wins, and 0 on both sides means unlimited.
func (g *Governor) Limit(perSolve time.Duration) time.Duration {
	s := g.Slice()
	var granted time.Duration
	switch {
	case s <= 0:
		granted = perSolve
	case perSolve <= 0 || s < perSolve:
		granted = s
	default:
		granted = perSolve
	}
	if g != nil && g.tel != nil {
		g.tel.Inc(telemetry.CtrSlices)
		g.tel.Emit(telemetry.EvSlice, granted.Seconds(), "")
	}
	return granted
}

// Allowance is Limit with explicit exhaustion: it grants the next solve's
// wall-clock allowance while budget remains and returns ErrExhausted the
// moment none does. Limit's behaviour past the deadline — keep granting
// floor slices so a degradation ladder can run its terminal rungs — is
// exactly wrong for a server admission path: a request whose budget is
// spent (or was computed <= 0 by multi-tenant apportioning) must get an
// immediate BudgetExhausted answer, not an endless train of floor slices.
// The returned error wraps ctx semantics the caller adds; here it is the
// bare sentinel.
func (g *Governor) Allowance(perSolve time.Duration) (time.Duration, error) {
	if g.Exhausted() {
		return 0, fmt.Errorf("governor: %w", ErrExhausted)
	}
	return g.Limit(perSolve), nil
}

// Engine names one synthesis engine, and so one rung of the degradation
// ladder.
type Engine int

// Engines. EngineAuto is a request, not a rung: it runs the combinatorial
// engine (Resolved).
const (
	// EngineAuto uses the combinatorial engine (fastest exact method).
	EngineAuto Engine = iota
	// EngineMILP is the paper's mixed integer-linear programming
	// formulation solved by LP-based branch and bound.
	EngineMILP
	// EngineCombinatorial is the mapping-enumeration + disjunctive-
	// scheduling branch and bound.
	EngineCombinatorial
	// EngineHeuristic is the greedy configuration-enumerating synthesizer
	// with ETF scheduling: fast, always terminates, proves nothing.
	EngineHeuristic
)

func (e Engine) String() string {
	switch e {
	case EngineAuto:
		return "auto"
	case EngineMILP:
		return "milp"
	case EngineCombinatorial:
		return "combinatorial"
	case EngineHeuristic:
		return "heuristic"
	}
	return "unknown"
}

// ParseEngine returns the engine whose String form is s.
func ParseEngine(s string) (Engine, error) {
	for e := EngineAuto; e <= EngineHeuristic; e++ {
		if e.String() == s {
			return e, nil
		}
	}
	return 0, fmt.Errorf("unknown engine %q", s)
}

// Resolved returns the engine that runs for e: EngineAuto runs the
// combinatorial engine, every other engine itself.
func (e Engine) Resolved() Engine {
	if e == EngineAuto {
		return EngineCombinatorial
	}
	return e
}

// Ladder is an ordered sequence of degradation rungs. A governed sweep
// tries each rung in turn until one proves its point optimal (or
// infeasible); when every rung exhausts its slice, the best incumbent any
// rung produced is kept, annotated with its gap.
type Ladder []Engine

// DefaultLadder returns the standard degradation ladder starting from the
// given engine: MILP degrades through the (much faster) combinatorial
// engine to the heuristic; the combinatorial engine (which EngineAuto
// runs) degrades straight to the heuristic.
func DefaultLadder(first Engine) Ladder {
	switch first {
	case EngineMILP:
		return Ladder{EngineMILP, EngineCombinatorial, EngineHeuristic}
	case EngineHeuristic:
		return Ladder{EngineHeuristic}
	default:
		return Ladder{EngineCombinatorial, EngineHeuristic}
	}
}
