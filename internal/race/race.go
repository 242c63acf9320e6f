// Package race runs the synthesis engine portfolio: one Portfolio of
// rungs, walked in order (Walk) or raced concurrently (Race), settled by
// one rule. Every solve in the stack — a single solve, a batch member, a
// frontier point, an sosd request — is one Family.Point, whose rungs
// Rungs decides. Either mode turns a rung's panic into that rung's
// error, so one crashing engine costs its rung, never the solve.
//
// A race runs over a shared incumbent bus. It generalizes
// milp.Options.IncumbentPool from "warm starts across sweep points" to
// "incumbents across engines while they run": every rung publishes each
// feasible design it finds, every rung polls for designs the others
// found, and the first rung to produce a *proof* (Optimal or Infeasible)
// wins the race while the rest are canceled. Losing engines are not
// wasted — their incumbents tighten the eventual winner's pruning bound
// the moment they land on the bus.
//
// The bus trusts nobody. Every published design is vetted by the
// constructor-supplied predicate before adoption (the same stance the
// cache takes with near-miss warm starts, and the engines take with
// Warm/IncumbentPool seeds), so a buggy or panicking engine can slow a
// race down but can never corrupt its answer.
package race

import (
	"sync"
	"sync/atomic"

	"sos/internal/arch"
	"sos/internal/budget"
	"sos/internal/exact"
	"sos/internal/milp"
	"sos/internal/model"
	"sos/internal/schedule"
	"sos/internal/taskgraph"
)

// Bus is the cross-engine incumbent bus: the best feasible design any
// rung has published so far, with a version counter so engines can
// poll for "anything new since I last looked?" with one atomic load.
type Bus struct {
	vet func(*schedule.Design, float64) bool

	version atomic.Uint64 // bumped on every installed improvement

	mu   sync.Mutex
	best *schedule.Design
	obj  float64 // objective value of best (lower is better)
	src  budget.Engine
}

// NewBus creates a bus. vet, when non-nil, is the feasibility gate every
// published design must pass before adoption (design, objective value);
// designs failing it are dropped silently.
func NewBus(vet func(*schedule.Design, float64) bool) *Bus {
	return &Bus{vet: vet}
}

// NewBusFor creates the bus for one problem. A published design is
// adopted only when it belongs to this graph, pool and topology, passes
// the schedule validator under vo, and meets the problem's bound: a
// deadline on the MinCost axis (minCost), otherwise a cost cap (<= 0
// means uncapped).
func NewBusFor(g *taskgraph.Graph, pool *arch.Instances, topo arch.Topology, vo *schedule.ValidateOptions, minCost bool, bound float64) *Bus {
	const eps = 1e-9
	return NewBus(func(d *schedule.Design, _ float64) bool {
		if d.Graph != g || d.Pool != pool || d.Topo != topo || d.Validate(vo) != nil {
			return false
		}
		if minCost {
			return d.Makespan <= bound+eps
		}
		return bound <= 0 || d.Cost <= bound+eps
	})
}

// AttachMILP hooks one MILP solve onto the bus: every strictly improving
// incumbent is extracted to a design and published under r, and the bus
// is polled at the solver's budget-check cadence for designs other
// engines found, which enter as untrusted IncumbentPool-style
// candidates. Attach only to the solve whose objective is the bus's
// ordering axis. A nil bus attaches nothing.
func (b *Bus) AttachMILP(o *milp.Options, m *model.Model, r budget.Engine) {
	if b == nil {
		return
	}
	o.OnIncumbent = func(obj float64, x []float64) {
		if d, err := m.Extract(x); err == nil {
			b.Publish(r, d, obj)
		}
	}
	o.Foreign = func(seen uint64) ([]float64, uint64, bool) {
		d, v, ok := b.Peek(seen)
		if !ok || d == nil {
			return nil, v, false
		}
		if vec, err := m.IncumbentVector(d); err == nil {
			return vec, v, true
		}
		return nil, v, false
	}
}

// AttachExact is AttachMILP for the combinatorial engine; designs cross
// the bus directly, no vector translation needed. The publish objective
// follows the solve's own axis. A nil bus attaches nothing.
func (b *Bus) AttachExact(o *exact.Options, r budget.Engine) {
	if b == nil {
		return
	}
	minCost := o.Objective == exact.MinCost
	o.OnIncumbent = func(d *schedule.Design, cost float64) {
		obj := d.Makespan
		if minCost {
			obj = cost
		}
		b.Publish(r, d, obj)
	}
	o.Foreign = b.Peek
}

// Publish offers a design with objective value obj (lower is better)
// found by rung r. It is installed only if it passes the vet and strictly
// improves the current best; the return reports whether it was installed.
// Safe for concurrent use; a nil bus installs nothing.
func (b *Bus) Publish(r budget.Engine, d *schedule.Design, obj float64) bool {
	if b == nil || d == nil {
		return false
	}
	if b.vet != nil && !b.vet(d, obj) {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.best != nil && obj >= b.obj {
		return false
	}
	b.best, b.obj, b.src = d, obj, r
	b.version.Add(1)
	return true
}

// Best returns the current best design, its objective, and the rung that
// published it; ok is false while the bus is empty.
func (b *Bus) Best() (d *schedule.Design, obj float64, src budget.Engine, ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.best, b.obj, b.src, b.best != nil
}

// Peek is the polling read engines use from their budget-check loops:
// if the bus has changed since version seen, it returns the current best
// and the new version; otherwise ok is false and the load was one atomic.
func (b *Bus) Peek(seen uint64) (d *schedule.Design, version uint64, ok bool) {
	v := b.version.Load()
	if v == seen {
		return nil, seen, false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	// Re-read the version under the lock so the returned pair is coherent.
	return b.best, b.version.Load(), b.best != nil
}

// Version returns the bus's current version counter (0 = never written).
func (b *Bus) Version() uint64 { return b.version.Load() }
