// Package telemetry is the solver stack's observability layer: monotonic
// counters, phase timers, and a low-overhead branch-and-bound trace-event
// sink, shared by internal/lp, internal/milp, internal/exact,
// internal/pareto, and internal/budget.
//
// The design constraint is that instrumentation must cost nothing when it
// is off. A nil *Collector is the valid, default "disabled" state — every
// method is nil-safe and returns immediately — so hot solver loops pay one
// pointer check per touch point. Event emission is additionally gated on
// Tracing(): a Collector without a Sink still aggregates counters (atomic
// adds) but constructs no Event values.
//
// The package deliberately depends on nothing but the standard library so
// every solver layer can import it without cycles.
package telemetry

import (
	"bufio"
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Counter identifies one monotonic solver counter. Counters aggregate
// across every solve attached to the same Collector.
type Counter int

// Counters, grouped by the layer that owns them.
const (
	// CtrNodesExpanded counts branch-and-bound nodes whose relaxation was
	// solved (milp; matches Solution.Nodes).
	CtrNodesExpanded Counter = iota
	// CtrNodesPruned counts nodes cut by the incumbent bound before their
	// relaxation was solved.
	CtrNodesPruned
	// CtrIncumbents counts strictly improving incumbents installed.
	CtrIncumbents
	// CtrLPWarm counts node relaxations served from a retained basis.
	CtrLPWarm
	// CtrLPCold counts relaxations built from scratch.
	CtrLPCold
	// CtrLPFallbacks counts warm attempts abandoned to a cold rebuild.
	CtrLPFallbacks
	// CtrLPDualIters counts dual-simplex repair pivots across warm solves.
	CtrLPDualIters
	// CtrLPPrimalIters counts primal cleanup pivots across warm solves.
	CtrLPPrimalIters
	// CtrMapNodes counts the exact engine's outer mapping nodes.
	CtrMapNodes
	// CtrSchedNodes counts the exact engine's inner scheduling B&B nodes.
	CtrSchedNodes
	// CtrPoints counts frontier points appended by sweeps.
	CtrPoints
	// CtrSlices counts governor budget slices granted.
	CtrSlices
	// CtrRollovers counts points that finished under their slice, rolling
	// the unused time over to later points.
	CtrRollovers
	// CtrDegrades counts ladder rungs a walk entered below the first
	// (each one degrades a starved or failed point or solve).
	CtrDegrades
	// CtrDominatedDropped counts degraded frontier points removed because a
	// later, cheaper point dominated them.
	CtrDominatedDropped
	// CtrSpeculativeHits counts parallel-sweep chain caps served by a
	// completed speculative solve (no inline work needed).
	CtrSpeculativeHits
	// CtrSpeculativeWasted counts speculative solves whose result was never
	// used by the chain (canceled too late or off-grid).
	CtrSpeculativeWasted
	// CtrSpeculativeRetargeted counts speculative jobs canceled before
	// completion because a landed point proved their cap redundant.
	CtrSpeculativeRetargeted
	// CtrLPRefactors counts sparse-kernel basis refactorizations (scheduled
	// eta-file rollups plus singular-basis recoveries).
	CtrLPRefactors
	// CtrLPPresolveRows counts constraint rows eliminated by LP presolve.
	CtrLPPresolveRows
	// CtrLPPresolveCols counts columns eliminated by LP presolve.
	CtrLPPresolveCols
	// CtrCutsAdded counts cutting planes appended at the MILP root.
	CtrCutsAdded

	// CtrReqAdmitted counts service requests accepted onto the solve queue.
	CtrReqAdmitted
	// CtrReqServed counts service requests that ran to a response (any
	// solver status, including budget-exhausted and infeasible).
	CtrReqServed
	// CtrReqShed counts requests refused or dropped by admission control:
	// queue-full rejections plus queued requests whose deadline could no
	// longer be met when a worker reached them.
	CtrReqShed
	// CtrReqDegraded counts requests served below their requested ladder
	// rung (load pressure or budget exhaustion stepped them down).
	CtrReqDegraded
	// CtrReqCanceled counts requests whose context was canceled (client
	// disconnect or shutdown) before a response could be delivered.
	CtrReqCanceled
	// CtrReqPanics counts isolated panics: one per portfolio rung whose
	// error wraps budget.ErrPanic (an engine's panic, or the rung's own),
	// plus one per panic sosd recovers at its request boundary.
	CtrReqPanics

	// CtrCacheHits counts result-cache lookups served with a proof —
	// exact key hits plus cover-down hits at a different cap.
	CtrCacheHits
	// CtrCacheNearHits counts lookups that missed but yielded at least
	// one same-family cached design injected as an untrusted warm
	// incumbent.
	CtrCacheNearHits
	// CtrCacheMisses counts lookups that found nothing servable.
	CtrCacheMisses
	// CtrCacheEvictions counts proofs dropped by per-shard LRU pressure.
	CtrCacheEvictions
	// CtrCacheCoalesced counts requests that waited on another in-flight
	// identical request instead of solving (single-flight followers).
	CtrCacheCoalesced

	// CtrRaceWinsMILP counts engine races won by the MILP rung (it
	// produced the adopted proof first).
	CtrRaceWinsMILP
	// CtrRaceWinsComb counts engine races won by the combinatorial rung.
	CtrRaceWinsComb
	// CtrRaceWinsHeur counts races where no rung proved anything and the
	// heuristic's (or best surviving) incumbent was adopted.
	CtrRaceWinsHeur
	// CtrRaceCanceled counts losing engines canceled because another
	// rung finished first.
	CtrRaceCanceled

	// CtrFrontierHits counts sweeps answered entirely from the result
	// cache's stored chain points (zero solver invocations).
	CtrFrontierHits
	// CtrFrontierPartialHits counts sweeps partially served from the
	// cache: some chain points came from it and the uncovered cap
	// regions were delta-resolved.
	CtrFrontierPartialHits
	// CtrFrontierMisses counts sweeps the cache could not help with at
	// all (cold family or uncovered range).
	CtrFrontierMisses
	// CtrFrontierDeltaPoints counts the frontier points actually solved
	// during partial-hit sweeps — the delta the cache did not cover.
	CtrFrontierDeltaPoints
	// CtrFrontierStores counts sweeps that stored new chain points (or
	// a new final infeasible cap) in the cache.
	CtrFrontierStores

	numCounters
)

var counterNames = [numCounters]string{
	"nodes_expanded", "nodes_pruned", "incumbents",
	"lp_warm", "lp_cold", "lp_fallbacks", "lp_dual_iters", "lp_primal_iters",
	"map_nodes", "sched_nodes",
	"points", "slices", "rollovers", "degrades", "dominated_dropped",
	"speculative_hits", "speculative_wasted", "speculative_retargeted",
	"lp_refactors", "lp_presolve_rows", "lp_presolve_cols", "cuts_added",
	"req_admitted", "req_served", "req_shed", "req_degraded", "req_canceled", "req_panics",
	"cache_hits", "cache_near_hits", "cache_misses", "cache_evictions", "cache_coalesced",
	"race_wins_milp", "race_wins_comb", "race_wins_heur", "race_canceled",
	"frontier_hits", "frontier_partial_hits", "frontier_misses",
	"frontier_delta_points", "frontier_stores",
}

func (c Counter) String() string {
	if c >= 0 && c < numCounters {
		return counterNames[c]
	}
	return fmt.Sprintf("counter(%d)", int(c))
}

// EventKind classifies one trace event.
type EventKind int

// Event kinds. The per-kind Value payload is documented on each.
const (
	// EvNodeExpand: a B&B node's relaxation was solved. Value is the node's
	// parent bound (or -Inf at the root).
	EvNodeExpand EventKind = iota
	// EvNodePrune: a node was cut against the incumbent before solving.
	// Value is the node's bound.
	EvNodePrune
	// EvIncumbent: a strictly improving incumbent was installed. Value is
	// its objective.
	EvIncumbent
	// EvLPResolve: one node relaxation was served. Label is "warm", "cold",
	// or "fallback"; Value is the pivot count the solve consumed.
	EvLPResolve
	// EvSlice: the governor granted a budget slice. Value is the slice in
	// seconds.
	EvSlice
	// EvRollover: a sweep point finished under its slice. Value is the
	// unused time in seconds, which rolls over to later points.
	EvRollover
	// EvDegrade: a walked point — a sweep point or an anytime solve —
	// moved down its ladder. Label is the rung entered; Value is the
	// point's bound.
	EvDegrade
	// EvPoint: a sweep point was resolved. Label is its status; Value is
	// the wall-clock spend in seconds.
	EvPoint
	// EvDominated: a previously appended (degraded) frontier point was
	// dropped because a cheaper, no-slower point superseded it. Value is
	// the dropped point's makespan.
	EvDominated
	// EvSpeculate: a parallel-sweep speculative solve changed state. Label
	// is "hit" (result adopted by the chain), "wasted" (completed unused),
	// or "retargeted" (canceled as redundant); Value is the speculated
	// cost cap.
	EvSpeculate
	// EvLPRefactor: the sparse kernel refactorized its basis. Value is the
	// number of eta updates absorbed since the previous factorization.
	EvLPRefactor
	// EvLPPresolve: an LP presolve pass finished. Value is the total count
	// of eliminated rows plus columns.
	EvLPPresolve
	// EvCut: a cutting plane was appended at the MILP root. Value is the
	// cut's violation at the fractional point; Label is the cut family.
	EvCut
	// EvRequest: a service request reached a terminal outcome. Label is the
	// outcome (a solver status, "shed", "canceled", or "panic"); Value is
	// the request's wall-clock seconds from admission to outcome.
	EvRequest
	// EvCache: a result-cache interaction. Label is one of "hit",
	// "cover", "near", "miss", "remap-fail", "store", "evict", or
	// "coalesced"; Value is the request's cap/deadline (or a count for
	// "near"/"evict").
	EvCache
	// EvRace: an engine race reached a terminal state. Label is the
	// winning rung ("milp", "combinatorial", "heuristic") or "none";
	// Value is the number of entrants canceled.
	EvRace
	// EvFrontier: a sweep's interaction with the result cache. Label is
	// "hit", "partial", "miss", "store", "evict", or "coalesced"; Value is
	// the number of points served (hit) or delta-resolved (partial), of
	// entries stored or evicted, or the sweep's start cap (miss,
	// coalesced).
	EvFrontier

	numEventKinds
)

var eventNames = [numEventKinds]string{
	"node_expand", "node_prune", "incumbent", "lp_resolve",
	"slice", "rollover", "degrade", "point", "dominated",
	"speculate", "lp_refactor", "lp_presolve", "cut", "request", "cache", "race",
	"frontier",
}

func (k EventKind) String() string {
	if k >= 0 && k < numEventKinds {
		return eventNames[k]
	}
	return fmt.Sprintf("event(%d)", int(k))
}

// MarshalJSON emits the kind's name, keeping traces self-describing.
func (k EventKind) MarshalJSON() ([]byte, error) { return json.Marshal(k.String()) }

// UnmarshalJSON accepts the name form written by MarshalJSON.
func (k *EventKind) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	for i, n := range eventNames {
		if n == s {
			*k = EventKind(i)
			return nil
		}
	}
	return fmt.Errorf("telemetry: unknown event kind %q", s)
}

// Event is one trace record. T is the offset from the Collector's start so
// traces are self-contained and replayable without wall-clock context.
type Event struct {
	Kind  EventKind     `json:"kind"`
	T     time.Duration `json:"t"`
	Value float64       `json:"value,omitempty"`
	Label string        `json:"label,omitempty"`
}

// MarshalJSON guards the Value payload: bounds and objectives are ±Inf at
// the edges of a search, and encoding/json rejects non-finite floats, so
// they serialize as null instead.
func (e Event) MarshalJSON() ([]byte, error) {
	type wire struct {
		Kind  EventKind     `json:"kind"`
		T     time.Duration `json:"t"`
		Value *float64      `json:"value,omitempty"`
		Label string        `json:"label,omitempty"`
	}
	w := wire{Kind: e.Kind, T: e.T, Label: e.Label}
	if !math.IsInf(e.Value, 0) && !math.IsNaN(e.Value) && e.Value != 0 {
		v := e.Value
		w.Value = &v
	}
	return json.Marshal(w)
}

// Sink receives trace events. Implementations must be safe for concurrent
// use: concurrent solves sharing one Collector emit without coordination.
type Sink interface {
	Emit(Event)
}

// CountingSink tallies events per kind — the cheapest way to check a
// traced solve's event counts against its Solution statistics.
type CountingSink struct {
	counts [numEventKinds]atomic.Int64
}

// Emit implements Sink.
func (s *CountingSink) Emit(e Event) {
	if e.Kind >= 0 && e.Kind < numEventKinds {
		s.counts[e.Kind].Add(1)
	}
}

// Count returns how many events of kind k were emitted.
func (s *CountingSink) Count(k EventKind) int64 {
	if k < 0 || k >= numEventKinds {
		return 0
	}
	return s.counts[k].Load()
}

// Counts returns the nonzero per-kind tallies keyed by kind name.
func (s *CountingSink) Counts() map[string]int64 {
	out := map[string]int64{}
	for k := EventKind(0); k < numEventKinds; k++ {
		if n := s.counts[k].Load(); n > 0 {
			out[k.String()] = n
		}
	}
	return out
}

// RingSink keeps the last N events (plus a total count), bounding trace
// memory on long searches.
type RingSink struct {
	mu    sync.Mutex
	buf   []Event
	next  int
	total int64
}

// NewRingSink creates a ring holding the most recent n events (n >= 1).
func NewRingSink(n int) *RingSink {
	if n < 1 {
		n = 1
	}
	return &RingSink{buf: make([]Event, 0, n)}
}

// Emit implements Sink.
func (s *RingSink) Emit(e Event) {
	s.mu.Lock()
	if len(s.buf) < cap(s.buf) {
		s.buf = append(s.buf, e)
	} else {
		s.buf[s.next] = e
		s.next = (s.next + 1) % cap(s.buf)
	}
	s.total++
	s.mu.Unlock()
}

// Total returns how many events were emitted over the sink's lifetime.
func (s *RingSink) Total() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}

// Events returns the retained events, oldest first.
func (s *RingSink) Events() []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Event, 0, len(s.buf))
	out = append(out, s.buf[s.next:]...)
	out = append(out, s.buf[:s.next]...)
	return out
}

// StreamSink writes each event as one JSON line through an internal
// buffer. Writes are serialized; encode errors are remembered (first wins)
// rather than propagated into solver hot paths.
//
// Shutdown contract: a canceled or truncated run still produces a
// parseable trace. Close flushes the buffer and permanently quiesces the
// sink — events emitted after Close (stragglers from solves still draining)
// are dropped silently, never half-written into a file the caller is
// about to close. The underlying writer is NOT closed (the caller may
// have handed in os.Stderr); close it after Close returns.
type StreamSink struct {
	mu     sync.Mutex
	bw     *bufio.Writer
	enc    *json.Encoder
	err    error
	closed bool
}

// NewStreamSink creates a JSONL event stream over w.
func NewStreamSink(w io.Writer) *StreamSink {
	bw := bufio.NewWriter(w)
	return &StreamSink{bw: bw, enc: json.NewEncoder(bw)}
}

// Emit implements Sink. Events arriving after Close are dropped.
func (s *StreamSink) Emit(e Event) {
	s.mu.Lock()
	if !s.closed {
		if err := s.enc.Encode(e); err != nil && s.err == nil {
			s.err = err
		}
	}
	s.mu.Unlock()
}

// Flush forces buffered lines to the underlying writer and reports the
// sink's first error, if any.
func (s *StreamSink) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.bw.Flush(); err != nil && s.err == nil {
		s.err = err
	}
	return s.err
}

// Close flushes and quiesces the sink: all complete events reach the
// writer, later Emits become no-ops, and the first error over the sink's
// lifetime is returned. Safe to call more than once and safe to call
// concurrently with Emit — which is exactly the shutdown race a canceled
// run produces.
func (s *StreamSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed {
		s.closed = true
		if err := s.bw.Flush(); err != nil && s.err == nil {
			s.err = err
		}
	}
	return s.err
}

// Err reports the first encode failure, if any.
func (s *StreamSink) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// PhaseStat aggregates one named phase's timer.
type PhaseStat struct {
	Total time.Duration `json:"total"`
	Count int64         `json:"count"`
}

// Collector aggregates counters and phase timers and forwards trace events
// to an optional Sink. All methods are safe for concurrent use, and all are
// no-ops on a nil receiver — nil is the disabled state.
type Collector struct {
	start    time.Time
	sink     Sink
	counters [numCounters]atomic.Int64

	mu     sync.Mutex
	phases map[string]PhaseStat
}

// New creates a collector. sink may be nil: counters and phases still
// aggregate, but no events are constructed or emitted.
func New(sink Sink) *Collector {
	return &Collector{start: time.Now(), sink: sink, phases: map[string]PhaseStat{}}
}

// Tracing reports whether an event sink is attached. Hot loops use it to
// skip event construction entirely when only counters are wanted.
func (c *Collector) Tracing() bool { return c != nil && c.sink != nil }

// Add adds n to a counter.
func (c *Collector) Add(ctr Counter, n int64) {
	if c == nil || ctr < 0 || ctr >= numCounters {
		return
	}
	c.counters[ctr].Add(n)
}

// Inc adds one to a counter.
func (c *Collector) Inc(ctr Counter) { c.Add(ctr, 1) }

// Get returns a counter's current value (0 on a nil collector).
func (c *Collector) Get(ctr Counter) int64 {
	if c == nil || ctr < 0 || ctr >= numCounters {
		return 0
	}
	return c.counters[ctr].Load()
}

// Emit sends one event to the sink, stamping the time offset. No-op when
// disabled or when no sink is attached.
func (c *Collector) Emit(kind EventKind, value float64, label string) {
	if c == nil || c.sink == nil {
		return
	}
	c.sink.Emit(Event{Kind: kind, T: time.Since(c.start), Value: value, Label: label})
}

// Phase starts a named phase timer and returns its stop function; the
// elapsed time folds into the phase's aggregate on stop. The nil
// collector returns a no-op stop.
func (c *Collector) Phase(name string) func() {
	if c == nil {
		return func() {}
	}
	t0 := time.Now()
	return func() {
		d := time.Since(t0)
		c.mu.Lock()
		st := c.phases[name]
		st.Total += d
		st.Count++
		c.phases[name] = st
		c.mu.Unlock()
	}
}

// Counters returns the nonzero counters keyed by name.
func (c *Collector) Counters() map[string]int64 {
	if c == nil {
		return nil
	}
	out := map[string]int64{}
	for i := Counter(0); i < numCounters; i++ {
		if v := c.counters[i].Load(); v != 0 {
			out[i.String()] = v
		}
	}
	return out
}

// Phases returns a snapshot of the aggregated phase timers.
func (c *Collector) Phases() map[string]PhaseStat {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]PhaseStat, len(c.phases))
	for k, v := range c.phases {
		out[k] = v
	}
	return out
}

// Publish registers the collector's counters and phases under the given
// expvar name (e.g. "sos.telemetry") so a -debug-addr HTTP endpoint can
// export them. Publishing the same name twice panics (an expvar rule), so
// callers publish once per process.
func (c *Collector) Publish(name string) {
	if c == nil {
		return
	}
	expvar.Publish(name, expvar.Func(func() any {
		return map[string]any{
			"counters": c.Counters(),
			"phases":   c.Phases(),
		}
	}))
}
