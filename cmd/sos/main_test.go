package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"sos"
)

// buildCLI compiles the command under test once per test binary.
func buildCLI(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("CLI build in -short mode")
	}
	bin := filepath.Join(t.TempDir(), "sos-cli")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

func runCLI(t *testing.T, bin string, args ...string) (string, error) {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	return string(out), err
}

func TestCLIExample1(t *testing.T) {
	bin := buildCLI(t)
	out, err := runCLI(t, bin, "-example", "1", "-cost-cap", "14", "-budget", "2m")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	for _, want := range []string{"optimal", "cost=14", "perf=2.5", "p1a", "schedule:"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestCLIFrontier(t *testing.T) {
	bin := buildCLI(t)
	out, err := runCLI(t, bin, "-example", "1", "-frontier", "-budget", "2m")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	for _, want := range []string{"non-inferior designs", "2.5", "17"} {
		if !strings.Contains(out, want) {
			t.Errorf("frontier output missing %q:\n%s", want, out)
		}
	}
}

func TestCLISpecRoundTrip(t *testing.T) {
	bin := buildCLI(t)
	spec := filepath.Join(t.TempDir(), "spec.json")
	if out, err := runCLI(t, bin, "-write-spec", spec); err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if _, err := os.Stat(spec); err != nil {
		t.Fatal(err)
	}
	out, err := runCLI(t, bin, "-spec", spec, "-cost-cap", "7", "-gantt=false", "-budget", "2m")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(out, "perf=4") {
		t.Errorf("spec solve output:\n%s", out)
	}
}

func TestCLIArtifacts(t *testing.T) {
	bin := buildCLI(t)
	dir := t.TempDir()
	svg := filepath.Join(dir, "d.svg")
	dj := filepath.Join(dir, "d.json")
	lpf := filepath.Join(dir, "m.lp")
	eqf := filepath.Join(dir, "m.eq")
	out, err := runCLI(t, bin, "-example", "1", "-cost-cap", "14", "-gantt=false",
		"-svg", svg, "-save-design", dj, "-dump-lp", lpf, "-dump-equations", eqf, "-budget", "2m")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	for _, f := range []string{svg, dj, lpf, eqf} {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatalf("artifact %s: %v", f, err)
		}
		if len(data) == 0 {
			t.Errorf("artifact %s empty", f)
		}
	}
	// The SVG is the paper's Figure 2: Example 1's Design 1 at cap 14.
	data, err := os.ReadFile(svg)
	if err != nil {
		t.Fatal(err)
	}
	if s := string(data); !strings.HasPrefix(s, "<svg") || !strings.Contains(s, "makespan 2.5") {
		t.Errorf("unexpected SVG head: %.120s", s)
	}
}

func TestCLIBadFlags(t *testing.T) {
	bin := buildCLI(t)
	if out, err := runCLI(t, bin, "-example", "1", "-topology", "mesh"); err == nil {
		t.Errorf("unknown topology accepted:\n%s", out)
	}
	if out, err := runCLI(t, bin, "-example", "1", "-engine", "magic"); err == nil {
		t.Errorf("unknown engine accepted:\n%s", out)
	}
	if out, err := runCLI(t, bin); err == nil {
		t.Errorf("no input accepted:\n%s", out)
	}
}

func TestCLIInfeasible(t *testing.T) {
	bin := buildCLI(t)
	out, err := runCLI(t, bin, "-example", "1", "-cost-cap", "3", "-budget", "1m")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(out, "infeasible") {
		t.Errorf("expected infeasible report:\n%s", out)
	}
}

// runCLIOut runs the binary keeping stdout and stderr separate, so JSON
// reports on stdout can be parsed even when log lines go to stderr.
func runCLIOut(t *testing.T, bin string, args ...string) (stdout, stderr string, err error) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var so, se bytes.Buffer
	cmd.Stdout, cmd.Stderr = &so, &se
	err = cmd.Run()
	return so.String(), se.String(), err
}

// report mirrors runReport for decoding in tests; Result exercises the
// sos.Result UnmarshalJSON round trip.
type report struct {
	Result         *sos.Result        `json:"result"`
	Frontier       []json.RawMessage  `json:"frontier"`
	ElapsedSeconds float64            `json:"elapsed_seconds"`
	Counters       map[string]int64   `json:"counters"`
	PhasesSeconds  map[string]float64 `json:"phases_seconds"`
	Error          string             `json:"error"`
}

func TestCLIJSONReport(t *testing.T) {
	bin := buildCLI(t)
	stdout, stderr, err := runCLIOut(t, bin, "-example", "1", "-cost-cap", "14", "-budget", "2m", "-json")
	if err != nil {
		t.Fatalf("%v\nstdout:\n%s\nstderr:\n%s", err, stdout, stderr)
	}
	var rep report
	if err := json.Unmarshal([]byte(stdout), &rep); err != nil {
		t.Fatalf("stdout is not valid JSON: %v\n%s", err, stdout)
	}
	if rep.Result == nil || rep.Result.Status != sos.StatusOptimal || !rep.Result.Optimal {
		t.Errorf("result = %+v, want optimal", rep.Result)
	}
	if rep.Counters["map_nodes"] != int64(rep.Result.Nodes) {
		t.Errorf("map_nodes counter %d != result nodes %d",
			rep.Counters["map_nodes"], rep.Result.Nodes)
	}
	if rep.Counters["incumbents"] < 1 {
		t.Errorf("no incumbents in counters: %v", rep.Counters)
	}
	if rep.PhasesSeconds["solve"] <= 0 || rep.ElapsedSeconds <= 0 {
		t.Errorf("timings missing: phases=%v elapsed=%g", rep.PhasesSeconds, rep.ElapsedSeconds)
	}
}

// TestCLIJSONHeuristicGap: a heuristic run has Gap=+Inf, which must appear
// as null in the JSON (encoding/json rejects non-finite floats) and decode
// back to +Inf.
func TestCLIJSONHeuristicGap(t *testing.T) {
	bin := buildCLI(t)
	stdout, stderr, err := runCLIOut(t, bin, "-example", "1", "-engine", "heuristic", "-json")
	if err != nil {
		t.Fatalf("%v\nstdout:\n%s\nstderr:\n%s", err, stdout, stderr)
	}
	var raw map[string]any
	if err := json.Unmarshal([]byte(stdout), &raw); err != nil {
		t.Fatalf("stdout is not valid JSON: %v\n%s", err, stdout)
	}
	res := raw["result"].(map[string]any)
	if g, ok := res["gap"]; !ok || g != nil {
		t.Errorf("gap = %v, want explicit null", g)
	}
	var rep report
	if err := json.Unmarshal([]byte(stdout), &rep); err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(rep.Result.Gap, 1) {
		t.Errorf("round-tripped gap = %g, want +Inf", rep.Result.Gap)
	}
}

// TestCLIJSONBudgetExhausted: the report must still be valid, parseable
// JSON when the solve dies before any incumbent — with the unbounded gap
// as null and the exit reason in the error field — and the process must
// exit nonzero.
func TestCLIJSONBudgetExhausted(t *testing.T) {
	bin := buildCLI(t)
	stdout, stderr, err := runCLIOut(t, bin, "-example", "1", "-engine", "combinatorial",
		"-budget", "1ns", "-json")
	if err == nil {
		t.Fatalf("budget-exhausted run exited 0\nstdout:\n%s", stdout)
	}
	var rep report
	if jerr := json.Unmarshal([]byte(stdout), &rep); jerr != nil {
		t.Fatalf("stdout is not valid JSON: %v\nstdout:\n%s\nstderr:\n%s", jerr, stdout, stderr)
	}
	if rep.Result == nil || rep.Result.Status != sos.StatusBudgetExhausted {
		t.Fatalf("result = %+v, want budget-exhausted", rep.Result)
	}
	if !math.IsInf(rep.Result.Gap, 1) {
		t.Errorf("round-tripped gap = %g, want +Inf (unknown)", rep.Result.Gap)
	}
	if rep.Error == "" {
		t.Error("error field empty on failed run")
	}
	var raw map[string]any
	if err := json.Unmarshal([]byte(stdout), &raw); err != nil {
		t.Fatal(err)
	}
	if g := raw["result"].(map[string]any)["gap"]; g != nil {
		t.Errorf("raw gap = %v, want null", g)
	}
}

func TestCLIJSONFrontier(t *testing.T) {
	bin := buildCLI(t)
	stdout, stderr, err := runCLIOut(t, bin, "-example", "1", "-frontier", "-budget", "2m", "-json")
	if err != nil {
		t.Fatalf("%v\nstdout:\n%s\nstderr:\n%s", err, stdout, stderr)
	}
	var rep report
	if err := json.Unmarshal([]byte(stdout), &rep); err != nil {
		t.Fatalf("stdout is not valid JSON: %v\n%s", err, stdout)
	}
	if len(rep.Frontier) < 2 {
		t.Fatalf("frontier has %d points, want >= 2", len(rep.Frontier))
	}
	if rep.Counters["points"] != int64(len(rep.Frontier)) {
		t.Errorf("points counter %d != %d frontier entries",
			rep.Counters["points"], len(rep.Frontier))
	}
}

// TestCLISolverTrace: -solver-trace streams one JSON object per line and
// the event stream is consistent with the run's node counters.
func TestCLISolverTrace(t *testing.T) {
	bin := buildCLI(t)
	tracePath := filepath.Join(t.TempDir(), "events.jsonl")
	stdout, stderr, err := runCLIOut(t, bin, "-example", "1", "-cost-cap", "14",
		"-budget", "2m", "-json", "-solver-trace", tracePath)
	if err != nil {
		t.Fatalf("%v\nstdout:\n%s\nstderr:\n%s", err, stdout, stderr)
	}
	var rep report
	if err := json.Unmarshal([]byte(stdout), &rep); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int64{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var ev struct {
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("trace line not JSON: %v\n%s", err, line)
		}
		kinds[ev.Kind]++
	}
	if kinds["incumbent"] != rep.Counters["incumbents"] {
		t.Errorf("%d incumbent events, counter says %d", kinds["incumbent"], rep.Counters["incumbents"])
	}
	if kinds["incumbent"] < 1 {
		t.Errorf("no incumbent events in trace: %v", kinds)
	}
}

func TestCLIPprof(t *testing.T) {
	bin := buildCLI(t)
	prof := filepath.Join(t.TempDir(), "cpu.prof")
	stdout, stderr, err := runCLIOut(t, bin, "-example", "1", "-cost-cap", "14",
		"-budget", "2m", "-pprof", prof)
	if err != nil {
		t.Fatalf("%v\nstdout:\n%s\nstderr:\n%s", err, stdout, stderr)
	}
	info, err := os.Stat(prof)
	if err != nil {
		t.Fatalf("profile not written: %v", err)
	}
	if info.Size() == 0 {
		t.Error("profile file empty")
	}
}
