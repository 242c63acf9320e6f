package pareto

import (
	"context"
	"encoding/json"
	"math"
	"testing"

	"sos/internal/arch"
	"sos/internal/budget"
	"sos/internal/expts"
	"sos/internal/milp"
)

// TestPointMarshalNonFiniteGap pins the JSON-safety fix: a heuristic point
// carries Gap=+Inf, which encoding/json rejects as a bare float64. The
// custom marshaler must emit null instead of failing.
func TestPointMarshalNonFiniteGap(t *testing.T) {
	pt := Point{Status: budget.StatusFeasible, Gap: math.Inf(1), Rung: budget.RungHeuristic}
	data, err := json.Marshal(pt)
	if err != nil {
		t.Fatalf("marshal point with +Inf gap: %v", err)
	}
	var raw map[string]any
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if raw["gap"] != nil {
		t.Errorf("gap = %v, want null", raw["gap"])
	}
	if raw["status"] != "feasible" || raw["rung"] != "heuristic" {
		t.Errorf("status/rung = %v/%v", raw["status"], raw["rung"])
	}
	if _, ok := raw["design"]; ok {
		t.Error("design field present on a design-less point")
	}
}

func TestPointMarshalWithDesign(t *testing.T) {
	g, lib := expts.Example1()
	pool := expts.Example1Pool(lib)
	pts, err := Sweep(context.Background(), g, pool, arch.PointToPoint{}, Options{
		Engine: EngineCombinatorial, MILP: &milp.Options{}, StartCap: 4, // the one-point chain (4, 17)
	})
	if err != nil || len(pts) == 0 {
		t.Fatalf("sweep: %v (%d points)", err, len(pts))
	}
	data, err := json.Marshal(pts[0])
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var raw struct {
		Cost   *float64        `json:"cost"`
		Perf   *float64        `json:"perf"`
		Gap    *float64        `json:"gap"`
		Status string          `json:"status"`
		Design json.RawMessage `json:"design"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if raw.Cost == nil || *raw.Cost != pts[0].Cost() {
		t.Errorf("cost = %v, want %g", raw.Cost, pts[0].Cost())
	}
	if raw.Perf == nil || *raw.Perf != pts[0].Perf() {
		t.Errorf("perf = %v, want %g", raw.Perf, pts[0].Perf())
	}
	if raw.Status != "optimal" {
		t.Errorf("status = %q, want optimal", raw.Status)
	}
	if raw.Gap == nil || *raw.Gap != 0 {
		t.Errorf("gap = %v, want 0", raw.Gap)
	}
	if len(raw.Design) == 0 {
		t.Error("design missing from marshaled point")
	}
}
