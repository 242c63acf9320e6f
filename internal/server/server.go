// Package server turns the sos solver stack into a long-running,
// fault-tolerant synthesis service. It serves an HTTP/JSON API over a
// bounded worker pool, and its defining property is robustness:
//
//   - Admission control and backpressure: a bounded queue; a full queue
//     answers 429 with Retry-After instead of accepting work it cannot
//     do, and queued requests whose deadline can no longer be met are
//     shed when a worker reaches them rather than solved pointlessly.
//   - Multi-tenant budgeting: every admitted request acquires a
//     budget.Governor apportioned by a budget.MultiGovernor — the
//     tightest of the request's own budget, its wall-clock deadline, and
//     a fair share of server capacity under concurrency.
//   - Cancellation end to end: a client disconnect cancels the request
//     context, which is already threaded through every engine; the best
//     anytime incumbent is kept on the job record with the outcome
//     "canceled" instead of being thrown away.
//   - Graceful degradation: every solve is one facade call under one
//     governor allowance. An anytime request walks the degradation ladder
//     (MILP → combinatorial → heuristic; sos.Spec.Anytime) from its
//     requested engine, stepped down by queue pressure, and a request
//     whose budget is already spent gets the terminal heuristic alone.
//     The response labels the degradation honestly (Degraded, Rung, and
//     the result's Status/Gap).
//   - Graceful shutdown: drain stops admitting, lets queued and running
//     solves finish inside a grace period, then cancels their contexts so
//     they return partial (anytime) results instead of being killed.
//   - Panic isolation: a panicking engine costs its portfolio rung — an
//     anytime walk degrades around it, otherwise it is an error response
//     — and any other panic under the facade is recovered at the request
//     boundary into a well-formed JSON error. Each ticks req_panics once;
//     none kills the process.
//
// See DESIGN.md §12 for the architecture and failure-mode table.
package server

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"sos"
	"sos/internal/budget"
	"sos/internal/telemetry"
)

// Config tunes the service. The zero value yields a small but fully
// functional server (every field has a default).
type Config struct {
	// Workers is the number of concurrent solver workers (default 2).
	Workers int
	// QueueDepth bounds the admission queue (default 4×Workers). A full
	// queue sheds new requests with 429 + Retry-After.
	QueueDepth int
	// Capacity is the solve-time capacity granted to a request running
	// alone; under concurrency each request's share is Capacity divided
	// by the number of active requests (default 30s). <= 0 disables
	// capacity apportioning.
	Capacity time.Duration
	// DefaultBudget is the per-request budget applied when the request
	// does not carry one (default 10s).
	DefaultBudget time.Duration
	// MaxBudget clamps client-requested budgets (default Capacity).
	MaxBudget time.Duration
	// DrainGrace is how long Shutdown lets queued and in-flight solves
	// run before canceling their contexts (default 5s).
	DrainGrace time.Duration
	// MaxBodyBytes caps request bodies (default 1 MiB).
	MaxBodyBytes int64
	// Cache, when non-nil, is attached to every solve so repeated and
	// cap-covered specs are served from proofs and near-misses warm-start
	// the solvers. Shared across requests; see sos.NewCache.
	Cache *sos.Cache
	// MaxBatch caps the number of specs in one POST /v1/batch request
	// (default 64).
	MaxBatch int
	// RetryAfter is the client backoff hint on 429 responses (default 1s).
	RetryAfter time.Duration
	// DegradeAt and DegradeHardAt are queue-occupancy fractions (of
	// QueueDepth) at which new work is stepped down one / two ladder
	// rungs (defaults 0.5 and 0.9). Degradation keeps tail latency
	// bounded under sustained load; responses report it honestly.
	DegradeAt     float64
	DegradeHardAt float64
	// Telemetry receives per-request counters (admitted/served/shed/
	// degraded/canceled/panics) and, when tracing, request events. When
	// nil a collector is created so /v1/stats always has counters.
	Telemetry *telemetry.Collector
	// Hooks injects solver failpoints into every MILP solve — the chaos
	// suite's lever. Nil in production.
	Hooks *sos.SolverHooks
	// RaceEngines, when true, races the engine portfolio concurrently on
	// a shared incumbent bus for every solve and sweep instead of walking
	// the sequential degradation ladder; the first engine to produce a
	// proof wins and the rest are canceled. A racing solve is admitted as
	// one tenant per racing engine, so it buys its concurrency with a
	// thinner fair share rather than by multiplying its allotment.
	// Per-request "race" overrides this default; batch requests ignore it.
	RaceEngines bool
	// Logf, when non-nil, receives one line per request outcome and
	// lifecycle transition.
	Logf func(format string, args ...any)
}

const (
	// minRunway is the smallest useful time-to-deadline: a queued request
	// closer to its deadline than this is shed instead of solved.
	minRunway = 2 * time.Millisecond
	// jobHistory is how many finished jobs stay queryable via
	// GET /v1/jobs/{id}.
	jobHistory = 512
)

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.Capacity == 0 {
		c.Capacity = 30 * time.Second
	}
	if c.DefaultBudget <= 0 {
		c.DefaultBudget = 10 * time.Second
	}
	if c.MaxBudget <= 0 {
		c.MaxBudget = c.Capacity
	}
	if c.MaxBudget <= 0 { // Capacity was disabled (< 0)
		c.MaxBudget = time.Hour
	}
	if c.DrainGrace <= 0 {
		c.DrainGrace = 5 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.DegradeAt <= 0 {
		c.DegradeAt = 0.5
	}
	if c.DegradeHardAt <= 0 {
		c.DegradeHardAt = 0.9
	}
	if c.Telemetry == nil {
		c.Telemetry = telemetry.New(nil)
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Server is one synthesis service instance. Create with New, mount
// Handler on an http.Server, and stop with Shutdown.
type Server struct {
	cfg   Config
	tel   *telemetry.Collector
	gov   *budget.MultiGovernor
	start time.Time
	seq   atomic.Uint64

	// mu serializes admission against queue close: sends happen under
	// RLock, the one close under Lock, so a drain can never race a send
	// onto a closed channel.
	mu       sync.RWMutex
	queue    chan *job
	draining atomic.Bool

	jobs *registry
	wg   sync.WaitGroup
}

// New creates a server and starts its worker pool.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:   cfg,
		tel:   cfg.Telemetry,
		gov:   budget.NewMulti(cfg.Capacity),
		start: time.Now(),
		queue: make(chan *job, cfg.QueueDepth),
		jobs:  newRegistry(jobHistory),
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Draining reports whether the server has begun shutting down.
func (s *Server) Draining() bool { return s.draining.Load() }

// Queue reports current occupancy and capacity of the admission queue.
func (s *Server) Queue() (occupied, depth int) { return len(s.queue), cap(s.queue) }

// Workers reports the number of solver workers.
func (s *Server) Workers() int { return s.cfg.Workers }

// errShed and errDraining classify admission refusals.
var (
	errShed     = fmt.Errorf("queue full")
	errDraining = fmt.Errorf("server draining")
)

// admit enqueues a job or reports why it cannot. The RLock pairs with
// Shutdown's Lock: once draining is observed true under the lock, the
// queue can no longer be closed between the check and the send.
func (s *Server) admit(j *job) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.draining.Load() {
		return errDraining
	}
	select {
	case s.queue <- j:
		return nil
	default:
		return errShed
	}
}

// pressure converts queue occupancy into ladder-degradation levels:
// 0 = solve as requested, 1 = one rung down, 2 = two rungs down.
func (s *Server) pressure() int {
	occ, depth := float64(len(s.queue)), float64(cap(s.queue))
	switch {
	case occ >= s.cfg.DegradeHardAt*depth:
		return 2
	case occ >= s.cfg.DegradeAt*depth:
		return 1
	}
	return 0
}

// worker runs jobs off the queue until the queue is closed and drained.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.run(j)
	}
}

// run executes one job end to end: deadline shed check, governor
// acquisition, solve, response construction.
func (s *Server) run(j *job) {
	j.setState(stateRunning)
	now := time.Now()
	queued := now.Sub(j.enqueued)

	// Cancellation observed while queued: the client is gone (or shutdown
	// canceled the backlog); don't burn a worker on a response nobody can
	// receive. The job record keeps the outcome.
	if j.ctx.Err() != nil {
		s.finish(j, &Response{Status: OutcomeCanceled, HTTP: StatusClientClosedRequest,
			Error: "request canceled while queued"}, queued, 0)
		return
	}
	// Load shedding: a deadline that can no longer be met is refused in
	// O(1) rather than solved into a guaranteed timeout.
	if !j.deadline.IsZero() && time.Until(j.deadline) < minRunway {
		s.finish(j, &Response{Status: OutcomeShed, HTTP: http.StatusTooManyRequests,
			RetryAfterSeconds: retryAfterSeconds(s.cfg.RetryAfter),
			Error:             "deadline unreachable: shed from queue"}, queued, 0)
		return
	}

	// A racing job (a solve, each point of a sweep, each member of a
	// batch) runs one engine per rung concurrently, so it is admitted as
	// that many tenants: its fair share thins instead of its allotment
	// multiplying (budget.MultiGovernor.AcquireN).
	gov, release := s.gov.AcquireN(raceTenants(j), j.budget, j.deadline)
	defer release()

	// The solve context ends at the response deadline as well as on a
	// client cancel; each runner tells the two apart by j.ctx.Err().
	ctx := j.ctx
	if !j.deadline.IsZero() {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, j.deadline)
		defer cancel()
	}

	solveStart := time.Now()
	var resp *Response
	switch j.kind {
	case kindSweep:
		resp = s.runSweep(ctx, j, gov)
	case kindBatch:
		resp = s.runBatch(ctx, j, gov)
	default:
		resp = s.runSolve(ctx, j, gov)
	}
	s.finish(j, resp, queued, time.Since(solveStart))
}

// finish stamps, records, counts, and publishes a job's response.
func (s *Server) finish(j *job, resp *Response, queued, solve time.Duration) {
	resp.ID = j.id
	resp.Kind = j.kind.String()
	resp.QueuedSeconds = queued.Seconds()
	resp.SolveSeconds = solve.Seconds()
	if resp.HTTP == 0 {
		resp.HTTP = http.StatusOK
	}
	switch resp.Status {
	case OutcomeShed:
		s.tel.Inc(telemetry.CtrReqShed)
	case OutcomeCanceled:
		s.tel.Inc(telemetry.CtrReqCanceled)
	case OutcomeError:
		// Counted as served work for throughput purposes? No: errors are
		// their own row in the failure-mode table; only panics tick a
		// dedicated counter (in synthesize).
	default:
		s.tel.Inc(telemetry.CtrReqServed)
		if resp.Degraded {
			s.tel.Inc(telemetry.CtrReqDegraded)
		}
	}
	s.tel.Emit(telemetry.EvRequest, (queued + solve).Seconds(), resp.Status)
	s.cfg.Logf("job %s %s: %s (queued %v, solve %v, rung %s)",
		j.id, resp.Kind, resp.Status, queued.Round(time.Microsecond), solve.Round(time.Microsecond), resp.Rung)
	j.complete(resp)
}

// isolated runs one facade call at the request boundary: a panic no
// portfolio rung isolated becomes an error wrapping budget.ErrPanic and a
// req_panics tick, never a dead worker.
func isolated[T any](tel *telemetry.Collector, solve func() (T, error)) (v T, err error) {
	defer func() {
		if r := recover(); r != nil {
			tel.Inc(telemetry.CtrReqPanics)
			err = fmt.Errorf("solver %w: %v", budget.ErrPanic, r)
		}
	}()
	return solve()
}

// Shutdown drains the server: admission stops immediately (readyz goes
// 503, new requests are refused), queued and in-flight solves keep
// running up to DrainGrace, then their contexts are canceled so anytime
// engines return partial results, and the worker pool is waited out.
// Safe to call more than once; respects ctx for the final wait.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	first := !s.draining.Swap(true)
	if first {
		close(s.queue)
	}
	s.mu.Unlock()
	if first {
		s.cfg.Logf("draining: %d queued, grace %v", len(s.queue), s.cfg.DrainGrace)
	}

	grace := time.AfterFunc(s.cfg.DrainGrace, func() {
		s.cfg.Logf("drain grace expired: canceling in-flight solves")
		s.jobs.cancelOpen()
	})
	defer grace.Stop()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.cfg.Logf("drained cleanly")
		return nil
	case <-ctx.Done():
		s.jobs.cancelOpen()
		<-done
		return ctx.Err()
	}
}

// retryAfterSeconds renders the Retry-After hint, always at least 1s
// (the header has whole-second granularity).
func retryAfterSeconds(d time.Duration) int {
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// StatusClientClosedRequest is the (nginx-convention) status recorded on
// job records whose client disconnected; it is never actually written to
// a live connection.
const StatusClientClosedRequest = 499
