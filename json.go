package sos

import (
	"encoding/json"
	"math"

	"sos/internal/budget"
	"sos/internal/schedule"
)

// ParseEngine returns the engine whose String form is s.
func ParseEngine(s string) (Engine, error) { return budget.ParseEngine(s) }

// finitePtr returns &v when v is finite, nil otherwise — encoding/json
// rejects non-finite floats, so they serialize as null.
func finitePtr(v float64) *float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return nil
	}
	return &v
}

// resultJSON is the wire form of Result. Bound and Gap are pointers because
// they legitimately hold non-finite values (Gap is +Inf when no lower bound
// is known, e.g. on heuristic results) and encoding/json errors on those;
// null stands in for "non-finite / unknown".
type resultJSON struct {
	Status     string          `json:"status"`
	Engine     string          `json:"engine"`
	Bound      *float64        `json:"bound"`
	Gap        *float64        `json:"gap"`
	Optimal    bool            `json:"optimal"`
	Infeasible bool            `json:"infeasible"`
	Nodes      int             `json:"nodes"`
	Cached     bool            `json:"cached,omitempty"`
	Model      json.RawMessage `json:"model,omitempty"`
	Design     json.RawMessage `json:"design,omitempty"`
}

// MarshalJSON emits a JSON-safe view of the result: non-finite Bound/Gap
// values become null and the design is embedded in its name-referenced wire
// form (schedule JSON).
func (r *Result) MarshalJSON() ([]byte, error) {
	out := resultJSON{
		Status:     r.Status.String(),
		Engine:     r.Engine.String(),
		Bound:      finitePtr(r.Bound),
		Gap:        finitePtr(r.Gap),
		Optimal:    r.Optimal,
		Infeasible: r.Infeasible,
		Nodes:      r.Nodes,
		Cached:     r.Cached,
	}
	if r.ModelStats != nil {
		m, err := json.Marshal(r.ModelStats)
		if err != nil {
			return nil, err
		}
		out.Model = m
	}
	if r.Design != nil {
		d, err := schedule.EncodeDesign(r.Design)
		if err != nil {
			return nil, err
		}
		out.Design = d
	}
	return json.Marshal(out)
}

// UnmarshalJSON restores the scalar fields of a marshaled Result. A null
// Gap decodes to +Inf (no bound known) and a null Bound to 0 (unknown),
// matching the zero-value conventions documented on Result. The Design is
// NOT reconstructed — decoding a design needs the problem context (graph,
// pool, topology) that the wire form references only by name — so Design is
// left nil; the raw design JSON remains available to callers that decode
// into resultJSON themselves.
func (r *Result) UnmarshalJSON(data []byte) error {
	var in resultJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return err
	}
	var st Status
	for _, s := range []Status{StatusOptimal, StatusFeasible, StatusBudgetExhausted, StatusInfeasible, StatusCanceled} {
		if s.String() == in.Status {
			st = s
		}
	}
	eng, err := ParseEngine(in.Engine)
	if err != nil {
		return err
	}
	r.Status = st
	r.Engine = eng
	r.Optimal = in.Optimal
	r.Infeasible = in.Infeasible
	r.Nodes = in.Nodes
	r.Cached = in.Cached
	r.Bound = 0
	if in.Bound != nil {
		r.Bound = *in.Bound
	}
	r.Gap = math.Inf(1)
	if in.Gap != nil {
		r.Gap = *in.Gap
	}
	r.Design = nil
	r.ModelStats = nil
	return nil
}

// frontierPointJSON mirrors resultJSON for one sweep point.
type frontierPointJSON struct {
	Cost   *float64        `json:"cost"`
	Perf   *float64        `json:"perf"`
	Status string          `json:"status"`
	Gap    *float64        `json:"gap"`
	Design json.RawMessage `json:"design,omitempty"`
}

// MarshalJSON emits a JSON-safe view of the point (null for the non-finite
// Gap a heuristic-rung point carries).
func (p FrontierPoint) MarshalJSON() ([]byte, error) {
	out := frontierPointJSON{
		Cost:   finitePtr(p.Cost),
		Perf:   finitePtr(p.Perf),
		Status: p.Status.String(),
		Gap:    finitePtr(p.Gap),
	}
	if p.Design != nil {
		d, err := schedule.EncodeDesign(p.Design)
		if err != nil {
			return nil, err
		}
		out.Design = d
	}
	return json.Marshal(out)
}
