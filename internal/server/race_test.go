package server

import (
	"net/http"
	"testing"

	"sos"
	"sos/internal/telemetry"
)

// TestSolveRaceRequested: a per-request "race": true runs the portfolio
// concurrently; the answer is still a certified optimum and the response
// carries honest attribution (raced + the winning rung).
func TestSolveRaceRequested(t *testing.T) {
	tel := telemetry.New(nil)
	_, ts := newTestServer(t, Config{Telemetry: tel})
	code, _, r := post(t, ts.URL+"/v1/solve", solveBody(`"race": true`))
	if code != http.StatusOK {
		t.Fatalf("code %d, want 200 (%+v)", code, r)
	}
	if r.Status != "optimal" || !r.hasDesign() {
		t.Fatalf("status %q result %s, want optimal with a design", r.Status, r.Result)
	}
	if !r.Raced || r.Rung == "" {
		t.Errorf("attribution missing: raced=%v rung=%q", r.Raced, r.Rung)
	}
	if r.Degraded {
		t.Error("certified raced solve reported degraded")
	}
	wins := tel.Get(telemetry.CtrRaceWinsMILP) + tel.Get(telemetry.CtrRaceWinsComb) +
		tel.Get(telemetry.CtrRaceWinsHeur)
	if wins != 1 {
		t.Errorf("race win counters sum to %d, want 1", wins)
	}
}

// TestSolveRaceServerDefault: Config.RaceEngines races every solve by
// default, and a per-request "race": false opts back out.
func TestSolveRaceServerDefault(t *testing.T) {
	_, ts := newTestServer(t, Config{RaceEngines: true})

	code, _, r := post(t, ts.URL+"/v1/solve", solveBody(""))
	if code != http.StatusOK || r.Status != "optimal" {
		t.Fatalf("code %d status %q, want 200 optimal", code, r.Status)
	}
	if !r.Raced {
		t.Error("RaceEngines default did not race the solve")
	}

	code, _, r = post(t, ts.URL+"/v1/solve", solveBody(`"race": false`))
	if code != http.StatusOK || r.Status != "optimal" {
		t.Fatalf("code %d status %q, want 200 optimal", code, r.Status)
	}
	if r.Raced {
		t.Error(`"race": false did not override the server default`)
	}
}

// TestSolveRaceHeuristicEngine: a heuristic-engine request has nothing to
// race; the ladder path serves it and nothing claims race attribution.
func TestSolveRaceHeuristicEngine(t *testing.T) {
	_, ts := newTestServer(t, Config{RaceEngines: true})
	code, _, r := post(t, ts.URL+"/v1/solve", solveBody(`"engine": "heuristic"`))
	if code != http.StatusOK {
		t.Fatalf("code %d, want 200 (%+v)", code, r)
	}
	if r.Raced {
		t.Error("heuristic solve claimed race attribution")
	}
}

// TestSweepRaced: sweeps race per frontier point; the frontier must be
// the same one the sequential server produces.
func TestSweepRaced(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, _, seq := post(t, ts.URL+"/v1/sweep", solveBody(""))
	if code != http.StatusOK || seq.Status != "optimal" {
		t.Fatalf("sequential sweep: code %d status %q", code, seq.Status)
	}
	code, _, raced := post(t, ts.URL+"/v1/sweep", solveBody(`"race": true`))
	if code != http.StatusOK || raced.Status != "optimal" {
		t.Fatalf("raced sweep: code %d status %q", code, raced.Status)
	}
	if len(raced.Frontier) != len(seq.Frontier) {
		t.Fatalf("raced frontier has %d points, sequential %d", len(raced.Frontier), len(seq.Frontier))
	}
	for i := range raced.Frontier {
		if string(raced.Frontier[i]) != string(seq.Frontier[i]) {
			t.Errorf("frontier point %d differs:\nraced:      %s\nsequential: %s",
				i, raced.Frontier[i], seq.Frontier[i])
		}
	}
}

// TestRaceTenants: admission charges a job one tenant per engine it runs
// at once. A raced solve and each point of a raced sweep run their whole
// raced ladder; a raced batch runs its members one at a time and is
// charged its largest ladder; anything unraced, and any heuristic solve,
// is one tenant.
func TestRaceTenants(t *testing.T) {
	spec := func(e sos.Engine, obj sos.Objective, raced bool) sos.Spec {
		return sos.Spec{Engine: e, Objective: obj, Race: raced}
	}
	comb, milp, heur := sos.EngineCombinatorial, sos.EngineMILP, sos.EngineHeuristic
	mk, mc := sos.MinMakespan, sos.MinCost
	for _, tc := range []struct {
		name string
		j    job
		want int
	}{
		{"solve", job{kind: kindSolve, spec: spec(comb, mk, false)}, 1},
		{"solve raced", job{kind: kindSolve, spec: spec(comb, mk, true)}, 2},
		{"solve raced milp", job{kind: kindSolve, spec: spec(milp, mk, true)}, 3},
		{"solve raced min-cost", job{kind: kindSolve, spec: spec(comb, mc, true)}, 2},
		{"solve raced heuristic", job{kind: kindSolve, spec: spec(heur, mk, true)}, 1},
		{"sweep", job{kind: kindSweep, spec: spec(milp, mk, false)}, 1},
		{"sweep raced", job{kind: kindSweep, spec: spec(comb, mk, true)}, 2},
		{"sweep raced milp", job{kind: kindSweep, spec: spec(milp, mk, true)}, 3},
		{"sweep raced heuristic", job{kind: kindSweep, spec: spec(heur, mk, true)}, 2},
		{"sweep raced min-cost", job{kind: kindSweep, spec: spec(comb, mc, true)}, 2},
		{"batch", job{kind: kindBatch, specs: []sos.Spec{spec(milp, mk, false), spec(comb, mk, false)}}, 1},
		{"batch raced", job{kind: kindBatch, specs: []sos.Spec{spec(comb, mk, true), spec(milp, mk, true)}}, 3},
		{"batch partly raced", job{kind: kindBatch, specs: []sos.Spec{spec(milp, mk, false), spec(comb, mk, true)}}, 2},
		{"batch empty", job{kind: kindBatch}, 1},
	} {
		if got := raceTenants(&tc.j); got != tc.want {
			t.Errorf("%s: %d tenants, want %d", tc.name, got, tc.want)
		}
	}
}

// TestSweepRacedAdmission: a raced sweep is admitted as one tenant per
// rung its points race, here the combinatorial engine and the heuristic.
func TestSweepRacedAdmission(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	code, _, r := post(t, ts.URL+"/v1/sweep", solveBody(`"race": true`))
	if code != http.StatusOK || r.Status != "optimal" {
		t.Fatalf("raced sweep: code %d status %q", code, r.Status)
	}
	if got := s.gov.Peak(); got != 2 {
		t.Errorf("peak admitted tenants %d, want 2", got)
	}
}
