package main

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func buildBench(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("CLI build in -short mode")
	}
	bin := filepath.Join(t.TempDir(), "sosbench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

func TestBenchTables(t *testing.T) {
	bin := buildBench(t)
	out, err := exec.Command(bin, "-table1", "-table2", "-table3", "-fig1", "-fig3", "-budget", "3m").CombinedOutput()
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	s := string(out)
	for _, want := range []string{
		"Table I:", "Table II:", "Table III:",
		"| 1 | 14 | 2.5 | (14, 2.5) | yes |",
		"Figure 1", "Figure 3",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q", want)
		}
	}
	if strings.Contains(s, "| NO |") {
		t.Errorf("a frontier point mismatched the paper:\n%s", s)
	}
}

func TestBenchTable4And5(t *testing.T) {
	bin := buildBench(t)
	out, err := exec.Command(bin, "-table4", "-table5", "-budget", "3m").CombinedOutput()
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	s := string(out)
	for _, want := range []string{
		"| 1 | 15 | 5 | (15, 5) | yes |",
		"| 1 | 10 | 6 | (10, 6) | yes |",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

// TestBenchPerfSweep runs the sweep entry of the perf workload table
// through `sosbench -perf sweep`: it must report its one row, finding the
// 5-point Table II frontier and counting its heap allocations, in a
// parseable BENCH_perf.json.
func TestBenchPerfSweep(t *testing.T) {
	bin := buildBench(t)
	dir := t.TempDir()
	cmd := exec.Command(bin, "-perf", "sweep", "-budget", "3m")
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	rows, err := readRows(filepath.Join(dir, perfFile))
	if err != nil {
		t.Fatalf("report: %v\n%s", err, out)
	}
	if len(rows) != 1 {
		t.Fatalf("report has %d rows, want 1:\n%+v", len(rows), rows)
	}
	r := rows[0]
	if r.Workload != "sweep/workers-1" || r.Counters["points"] != 5 || r.E2E.P50Ns <= 0 || r.E2E.N != reps ||
		!r.Invariants["table2_frontier"] || r.Host.CPUs <= 0 || r.Date == "" ||
		r.Counters["bytes_per_op"] <= 0 || r.Counters["allocs_per_op"] <= 0 {
		t.Errorf("row = %+v, want sweep/workers-1 with 5 points, %d runs, p50 > 0, the Table II frontier, host, date and allocations", r, reps)
	}
}

func TestBenchNoFlagsUsage(t *testing.T) {
	bin := buildBench(t)
	if out, err := exec.Command(bin).CombinedOutput(); err == nil {
		t.Errorf("no flags accepted:\n%s", out)
	}
}
