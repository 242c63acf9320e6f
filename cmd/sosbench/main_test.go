package main

import (
	"fmt"
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

// TestBenchSweepWorkers drives the -sweep-workers flag end to end: the
// speculative-parallel Table II sweep must reproduce every paper row.
func TestBenchSweepWorkers(t *testing.T) {
	bin := buildBench(t)
	out, err := exec.Command(bin, "-table2", "-sweep-workers", "4", "-budget", "3m").CombinedOutput()
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	s := string(out)
	for _, want := range []string{
		"| 1 | 14 | 2.5 | (14, 2.5) | yes |",
		"4 sweep workers",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
	if strings.Contains(s, "| NO |") {
		t.Errorf("a frontier point mismatched the paper:\n%s", s)
	}
}

// TestBenchPerfSweep runs the sweep entry of the perf workload table
// through the driver: it must report workers 1/2/4, each finding the
// 5-point Table II frontier, in a parseable BENCH_perf.json.
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
	if len(rows) != 3 {
		t.Fatalf("report has %d rows, want 3:\n%+v", len(rows), rows)
	}
	for i, workers := range []int{1, 2, 4} {
		r := rows[i]
		want := fmt.Sprintf("sweep/workers-%d", workers)
		if r.Workload != want || r.Counters["points"] != 5 || r.E2E.P50Ns <= 0 || r.E2E.N != reps ||
			!r.Invariants["table2_frontier"] || r.Host.CPUs <= 0 || r.Date == "" {
			t.Errorf("row %d = %+v, want %s with 5 points, %d runs, p50 > 0, the Table II frontier, host and date", i, r, want, reps)
		}
	}
}

func TestBenchNoFlagsUsage(t *testing.T) {
	bin := buildBench(t)
	if out, err := exec.Command(bin).CombinedOutput(); err == nil {
		t.Errorf("no flags accepted:\n%s", out)
	}
}
