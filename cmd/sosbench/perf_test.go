package main

import (
	"encoding/json"
	"io"
	"math"
	"strings"
	"testing"
)

// TestPerfReportSanitize pins the JSON-safety guard: rows carrying
// non-finite counters (possible from degenerate measurements) must
// sanitize to something encoding/json accepts, without touching finite
// values.
func TestPerfReportSanitize(t *testing.T) {
	rows := []perfRow{{
		Workload: "w",
		Date:     "2026-01-01",
		Counters: map[string]float64{
			"inf": math.Inf(1), "nan": math.NaN(), "neg-inf": math.Inf(-1), "ok": 1234.5,
		},
	}}
	if _, err := json.Marshal(rows); err == nil {
		t.Fatal("fixture is already marshalable; non-finite guard untested")
	}
	sanitize(rows)
	data, err := json.Marshal(rows)
	if err != nil {
		t.Fatalf("marshal after sanitize: %v", err)
	}
	for _, k := range []string{"inf", "nan", "neg-inf"} {
		if v := rows[0].Counters[k]; v != 0 {
			t.Errorf("%s = %g, want 0", k, v)
		}
	}
	if rows[0].Counters["ok"] != 1234.5 {
		t.Errorf("finite value mutated: %g", rows[0].Counters["ok"])
	}
	if !strings.Contains(string(data), "1234.5") {
		t.Errorf("finite counter missing from JSON: %s", data)
	}
}

// TestPerfCheck pins the one perf check: a false invariant fails, a
// ratcheted row passes at 1.19x its committed p50 and fails at 1.21x, and
// a ratcheted row without a committed p50 (or an unratcheted row over
// one) is skipped.
func TestPerfCheck(t *testing.T) {
	base := []perfRow{
		{Workload: "lp/a", E2E: perfE2E{N: 3, P50Ns: 1_000_000}},
		{Workload: "cache/b", E2E: perfE2E{N: 3, P50Ns: 1_000_000}},
		{Workload: "lp/zero", E2E: perfE2E{N: 0}},
	}
	ratcheted := func(name string, p50 int64) perfRow {
		return perfRow{Workload: name, E2E: perfE2E{N: 5, P50Ns: p50}, ratchet: true}
	}
	for _, tc := range []struct {
		name string
		row  perfRow
		fail bool
	}{
		{"invariants hold", perfRow{Workload: "cache/b", Invariants: map[string]bool{"x": true, "y": true}}, false},
		{"false invariant", perfRow{Workload: "cache/b", Invariants: map[string]bool{"x": true, "y": false}}, true},
		{"ratchet 1.19x", ratcheted("lp/a", 1_190_000), false},
		{"ratchet 1.20x", ratcheted("lp/a", 1_200_000), false},
		{"ratchet 1.21x", ratcheted("lp/a", 1_210_000), true},
		{"faster than baseline", ratcheted("lp/a", 500_000), false},
		{"no committed row", ratcheted("lp/new", 9_000_000), false},
		{"committed row without p50", ratcheted("lp/zero", 9_000_000), false},
		{"unratcheted row over its baseline", perfRow{Workload: "cache/b", E2E: perfE2E{N: 5, P50Ns: 9_000_000}}, false},
		{"false invariant on a ratcheted row", perfRow{Workload: "lp/a", E2E: perfE2E{N: 5, P50Ns: 1_000_000},
			Invariants: map[string]bool{"kernels_agree": false}, ratchet: true}, true},
	} {
		failed := checkRows(io.Discard, []perfRow{tc.row}, base)
		if got := len(failed) > 0; got != tc.fail {
			t.Errorf("%s: failed = %v, want failure %v", tc.name, failed, tc.fail)
		}
	}
}
