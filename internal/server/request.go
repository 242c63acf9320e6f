package server

import (
	"cmp"
	"encoding/json"
	"fmt"
	"time"

	"sos"
	"sos/internal/arch"
	"sos/internal/specfile"
)

// SolveRequest is the wire form of POST /v1/solve and POST /v1/sweep.
// Spec is a standard specfile document (the same JSON the CLI's -spec
// flag reads); the remaining fields mirror the CLI flags.
type SolveRequest struct {
	// Spec is the problem: {"graph": ..., "library": ..., "pool": ...}.
	Spec json.RawMessage `json:"spec"`

	// Objective: "makespan" (default, with CostCap) or "cost" (with
	// Deadline).
	Objective string `json:"objective,omitempty"`
	// CostCap bounds system cost under the makespan objective (0 = none).
	CostCap float64 `json:"cost_cap,omitempty"`
	// Deadline is the completion-time bound for the cost objective.
	Deadline float64 `json:"deadline,omitempty"`
	// Engine: "auto" (default), "milp", "combinatorial", or "heuristic".
	Engine string `json:"engine,omitempty"`
	// Topology: "p2p" (default), "bus", "ring", or "shmem".
	Topology string `json:"topology,omitempty"`

	// BudgetMS is the request's own solve budget in milliseconds (0 =
	// server default). The effective budget is also clamped by the server
	// maximum and by the multi-tenant fair share.
	BudgetMS int64 `json:"budget_ms,omitempty"`
	// DeadlineMS is the wall-clock response deadline in milliseconds from
	// admission. Past it the request is shed (queued) or canceled
	// (running); the best anytime incumbent found so far is still
	// returned.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// Anytime, default true, allows the server to degrade the request
	// down the MILP → combinatorial → heuristic ladder under load or
	// budget exhaustion. Set false to forbid degradation: the request
	// then either completes on its requested engine or reports
	// budget-exhausted.
	Anytime *bool `json:"anytime,omitempty"`
	// Race overrides the server's RaceEngines default for this request:
	// true races the engine portfolio concurrently on a shared incumbent
	// bus (first proof wins), false forces the sequential ladder.
	Race *bool `json:"race,omitempty"`
}

// BatchRequest is the wire form of POST /v1/batch: a set of related
// solve requests answered together. The server deduplicates identical
// and cap-covered specs through the result cache and solves cap/deadline
// variants of one problem off a shared model template (sos.SolveBatch).
// Budget and deadline apply to the batch as a whole.
type BatchRequest struct {
	// Requests are the batch members; each is a full SolveRequest whose
	// admission fields (budget_ms, deadline_ms, anytime) are ignored in
	// favor of the batch-level ones below.
	Requests []SolveRequest `json:"requests"`
	// BudgetMS is the whole batch's solve budget in milliseconds (0 =
	// server default), clamped like a solve budget.
	BudgetMS int64 `json:"budget_ms,omitempty"`
	// DeadlineMS is the wall-clock response deadline for the whole batch.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// BatchEntry is one slot of a batch response, positionally aligned with
// the request's Requests array.
type BatchEntry struct {
	// Status is the slot's solver status, or "error".
	Status string `json:"status"`
	// Raced and Rung report a raced member and its winning engine, as on
	// a solve response.
	Raced  bool        `json:"raced,omitempty"`
	Rung   string      `json:"rung,omitempty"`
	Result *sos.Result `json:"result,omitempty"`
	Error  string      `json:"error,omitempty"`
}

// Response is the wire form of every solve/sweep answer, and of the
// response embedded in a job record. Exactly one of Result/Frontier is
// set on success; Error explains refusals and failures. Status is the
// job-level outcome: a solver status ("optimal", "feasible",
// "budget-exhausted", "infeasible") for served requests, or "shed",
// "canceled", "draining", "error".
type Response struct {
	ID   string `json:"id,omitempty"`
	Kind string `json:"kind,omitempty"`
	// Status is the job-level outcome (see type doc).
	Status string `json:"status"`
	// HTTP is the status code the response was (or would have been)
	// written with; recorded on job records, not serialized.
	HTTP int `json:"-"`
	// Rung is the ladder rung that produced the result ("milp",
	// "combinatorial", "heuristic").
	Rung string `json:"rung,omitempty"`
	// Degraded reports that the result came from a lower rung than the
	// request asked for, or that the sweep degraded points.
	Degraded bool `json:"degraded,omitempty"`
	// Raced reports that the engine portfolio was raced concurrently for
	// this request; Rung then names the winning engine.
	Raced bool `json:"raced,omitempty"`

	Result   *sos.Result         `json:"result,omitempty"`
	Frontier []sos.FrontierPoint `json:"frontier,omitempty"`
	Batch    []BatchEntry        `json:"batch,omitempty"`

	QueuedSeconds     float64 `json:"queued_seconds"`
	SolveSeconds      float64 `json:"solve_seconds"`
	RetryAfterSeconds int     `json:"retry_after_seconds,omitempty"`
	Error             string  `json:"error,omitempty"`
}

// Job-level outcomes beyond the solver's own Status taxonomy.
const (
	// OutcomeShed: refused by admission control (queue full, or deadline
	// unreachable when a worker reached the queued request). HTTP 429.
	OutcomeShed = "shed"
	// OutcomeCanceled: the request context was canceled (client
	// disconnect or shutdown) before a response could be delivered. The
	// job record keeps the best anytime incumbent found before the
	// cancel.
	OutcomeCanceled = "canceled"
	// OutcomeDraining: refused because the server is shutting down.
	// HTTP 503.
	OutcomeDraining = "draining"
	// OutcomeError: the solve failed (invalid model, solver panic, ...).
	OutcomeError = "error"
)

// errBadRequest marks client errors (HTTP 400).
type errBadRequest struct{ msg string }

func (e errBadRequest) Error() string { return e.msg }

func badRequestf(format string, args ...any) error {
	return errBadRequest{fmt.Sprintf(format, args...)}
}

// toSpec validates and translates a request into a solver Spec plus the
// request's admission parameters. All validation errors are
// errBadRequest (→ 400); nothing here starts a solve.
func (s *Server) toSpec(req *SolveRequest) (spec sos.Spec, budget time.Duration, deadline time.Time, anytime bool, err error) {
	if len(req.Spec) == 0 {
		return spec, 0, deadline, false, badRequestf("missing \"spec\"")
	}
	sf, perr := specfile.Parse(req.Spec)
	if perr != nil {
		return spec, 0, deadline, false, badRequestf("invalid spec: %v", perr)
	}
	spec = sos.Spec{
		Graph:     sf.Graph,
		Library:   sf.Library,
		Pool:      sf.Instances(),
		CostCap:   req.CostCap,
		Deadline:  req.Deadline,
		Telemetry: s.tel,
		Hooks:     s.cfg.Hooks,
		Cache:     s.cfg.Cache,
	}
	switch req.Objective {
	case "", "makespan":
		spec.Objective = sos.MinMakespan
	case "cost":
		if req.Deadline <= 0 {
			return spec, 0, deadline, false, badRequestf("objective \"cost\" requires a positive \"deadline\"")
		}
		spec.Objective = sos.MinCost
	default:
		return spec, 0, deadline, false, badRequestf("unknown objective %q", req.Objective)
	}
	if spec.Engine, err = sos.ParseEngine(cmp.Or(req.Engine, "auto")); err != nil {
		return spec, 0, deadline, false, badRequestf("unknown engine %q", req.Engine)
	}
	if spec.Topology, err = arch.ParseTopology(cmp.Or(req.Topology, "p2p"), 0); err != nil {
		return spec, 0, deadline, false, badRequestf("unknown topology %q", req.Topology)
	}
	spec.Race = s.cfg.RaceEngines
	if req.Race != nil {
		spec.Race = *req.Race
	}
	if req.BudgetMS < 0 || req.DeadlineMS < 0 {
		return spec, 0, deadline, false, badRequestf("budget_ms and deadline_ms must be >= 0")
	}

	budget = s.cfg.DefaultBudget
	if req.BudgetMS > 0 {
		budget = time.Duration(req.BudgetMS) * time.Millisecond
	}
	if budget > s.cfg.MaxBudget {
		budget = s.cfg.MaxBudget
	}
	if req.DeadlineMS > 0 {
		deadline = time.Now().Add(time.Duration(req.DeadlineMS) * time.Millisecond)
	}
	anytime = req.Anytime == nil || *req.Anytime
	return spec, budget, deadline, anytime, nil
}
