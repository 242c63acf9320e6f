package server

import (
	"context"
	"net/http"

	"sos"
	"sos/internal/budget"
)

// runBatch executes one admitted batch job: every member solves through
// sos.SolveBatch (result-cache dedup + cover-down + shared MILP model
// templates) under a single governor allowance, and each slot's outcome
// lands positionally in Response.Batch. Per-slot failures never fail the
// batch; a canceled batch keeps whatever slots completed.
func (s *Server) runBatch(ctx context.Context, j *job, gov *budget.Governor) *Response {
	allowance, aerr := gov.Allowance(0)
	if aerr != nil {
		return &Response{Status: sos.StatusBudgetExhausted.String(), HTTP: http.StatusOK,
			Error: "batch budget exhausted before solving started"}
	}

	specs := make([]sos.Spec, len(j.specs))
	copy(specs, j.specs)
	// One allowance bounds the whole batch: every member shares the same
	// wall-clock window, and cache hits inside SolveBatch cost nothing
	// against it.
	for i := range specs {
		specs[i].Budget = allowance
	}

	results, err := isolated(s.tel, func() ([]sos.BatchResult, error) {
		return sos.SolveBatch(ctx, specs, s.cfg.Cache), nil
	})
	if err != nil {
		results = make([]sos.BatchResult, len(specs))
		for i := range results {
			results[i].Err = err
		}
	}

	resp := &Response{HTTP: http.StatusOK, Batch: make([]BatchEntry, len(results))}
	proofs, failures := 0, 0
	for i, br := range results {
		switch {
		case br.Err != nil:
			resp.Batch[i] = BatchEntry{Status: OutcomeError, Error: br.Err.Error()}
			failures++
		case br.Result == nil:
			resp.Batch[i] = BatchEntry{Status: OutcomeError, Error: "no result"}
			failures++
		default:
			resp.Batch[i] = BatchEntry{Status: br.Result.Status.String(), Raced: br.Result.Raced,
				Rung: br.Result.Rung, Result: br.Result}
			if br.Result.Status == sos.StatusOptimal || br.Result.Status == sos.StatusInfeasible {
				proofs++
			}
		}
	}
	switch {
	case j.ctx.Err() != nil:
		resp.Status = OutcomeCanceled
		resp.HTTP = StatusClientClosedRequest
		resp.Error = "request canceled: " + j.ctx.Err().Error()
	case failures == len(results):
		resp.Status = OutcomeError
		resp.HTTP = http.StatusInternalServerError
		resp.Error = "every batch member failed"
	case proofs == len(results):
		resp.Status = sos.StatusOptimal.String()
	default:
		resp.Status = sos.StatusFeasible.String()
	}
	return resp
}
