package sos

import (
	"context"
	"encoding/json"
	"math"
	"testing"
)

// TestResultJSONRoundTrip pins the JSON-safety contract: marshaling must
// never fail on non-finite Gap/Bound, and scalar fields must survive a
// round trip through json.Unmarshal.
func TestResultJSONRoundTrip(t *testing.T) {
	res, err := Synthesize(context.Background(), example1Spec(EngineAuto))
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back Result
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if back.Status != res.Status || back.Engine != res.Engine ||
		back.Optimal != res.Optimal || back.Nodes != res.Nodes ||
		back.Bound != res.Bound || back.Gap != res.Gap {
		t.Errorf("round trip mutated scalars:\n got %+v\nwant %+v", back, *res)
	}
	var raw map[string]any
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatalf("output not generic JSON: %v", err)
	}
	if _, ok := raw["design"]; !ok {
		t.Error("design missing from optimal result JSON")
	}
}

// TestResultJSONNonFiniteGap: a heuristic result carries Gap=+Inf, which
// plain json.Marshal rejects. The custom marshaler must emit null and the
// unmarshaler must restore +Inf.
func TestResultJSONNonFiniteGap(t *testing.T) {
	res, err := Synthesize(context.Background(), example1Spec(EngineHeuristic))
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(res.Gap, 1) {
		t.Fatalf("heuristic gap = %g, fixture expects +Inf", res.Gap)
	}
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatalf("marshal with +Inf gap: %v", err)
	}
	var raw map[string]any
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatalf("output not valid JSON: %v", err)
	}
	if raw["gap"] != nil {
		t.Errorf("gap = %v, want null", raw["gap"])
	}
	var back Result
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !math.IsInf(back.Gap, 1) {
		t.Errorf("round-tripped gap = %g, want +Inf", back.Gap)
	}
	if back.Status != StatusFeasible || back.Engine != EngineHeuristic {
		t.Errorf("round trip mutated status/engine: %+v", back)
	}
}

func TestFrontierPointJSON(t *testing.T) {
	pts, err := Frontier(context.Background(), example1Spec(EngineAuto))
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) == 0 {
		t.Fatal("empty frontier")
	}
	data, err := json.Marshal(pts)
	if err != nil {
		t.Fatalf("marshal frontier: %v", err)
	}
	var raw []map[string]any
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatalf("frontier JSON invalid: %v", err)
	}
	if len(raw) != len(pts) {
		t.Fatalf("%d JSON points, want %d", len(raw), len(pts))
	}
	for i, m := range raw {
		if m["cost"].(float64) != pts[i].Cost || m["perf"].(float64) != pts[i].Perf {
			t.Errorf("point %d: cost/perf mismatch: %v", i, m)
		}
		if m["status"] != "optimal" {
			t.Errorf("point %d: status %v", i, m["status"])
		}
	}

	// A degraded point with no known bound (a heuristic incumbent)
	// carries Gap = +Inf, which encoding/json rejects: it must go out as
	// null.
	degraded := pts[0]
	degraded.Status, degraded.Gap = StatusFeasible, math.Inf(1)
	data, err = json.Marshal(degraded)
	if err != nil {
		t.Fatalf("marshal point with +Inf gap: %v", err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("point JSON invalid: %v", err)
	}
	if gap, ok := m["gap"]; !ok || gap != nil {
		t.Errorf("gap = %v (present %v), want null", gap, ok)
	}
	if m["status"] != "feasible" || m["cost"].(float64) != degraded.Cost {
		t.Errorf("degraded point: status %v cost %v", m["status"], m["cost"])
	}
	if _, ok := m["design"]; !ok {
		t.Error("design missing from marshaled point")
	}
}

// TestTelemetryViaFacade: Spec.Telemetry threads down to the engines and the
// sweep machinery.
func TestTelemetryViaFacade(t *testing.T) {
	tel := NewTelemetry(nil)
	spec := example1Spec(EngineAuto)
	spec.Telemetry = tel
	res, err := Synthesize(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := tel.Counters()["map_nodes"]; got != int64(res.Nodes) {
		t.Errorf("map_nodes = %d, Result.Nodes = %d", got, res.Nodes)
	}
	if tel.Counters()["incumbents"] < 1 {
		t.Error("no incumbents recorded")
	}

	sweepTel := NewTelemetry(nil)
	sweepSpec := example1Spec(EngineAuto)
	sweepSpec.Telemetry = sweepTel
	pts, err := Frontier(context.Background(), sweepSpec)
	if err != nil {
		t.Fatal(err)
	}
	if got := sweepTel.Counters()["points"]; got != int64(len(pts)) {
		t.Errorf("points counter = %d, frontier has %d", got, len(pts))
	}
}
