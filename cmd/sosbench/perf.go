package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

// perfFile is the one committed perf report: the latest row of every
// workload, and the baselines the ratchet compares against.
const perfFile = "BENCH_perf.json"

// ratchetTolerance is the fraction by which a ratcheted row's p50 may
// exceed its committed p50 before the check fails it.
const ratchetTolerance = 0.20

// reps is the number of timed runs behind the p50 bars of the sweep, LP,
// race and zero-hit cache rows.
const reps = 5

// A perfRow is one measurement in the schema every workload reports.
// E2E times the row's operation; Counters hold its measured values, the
// inputs of its bars among them; Invariants hold each bar's verdict.
type perfRow struct {
	Workload string `json:"workload"`
	Host     struct {
		CPUs int    `json:"cpus"`
		Go   string `json:"go"`
	} `json:"host"`
	Date       string             `json:"date"`
	E2E        perfE2E            `json:"e2e"`
	Counters   map[string]float64 `json:"counters,omitempty"`
	Invariants map[string]bool    `json:"invariants,omitempty"`

	ratchet bool // set from the workload table; not part of the report
}

// perfE2E summarizes a row's per-operation wall-clock times: P50Ns is the
// upper median, P95Ns the nearest-rank 95th percentile of N samples.
type perfE2E struct {
	N     int   `json:"n"`
	P50Ns int64 `json:"p50_ns"`
	P95Ns int64 `json:"p95_ns"`
}

// perfWorkloads is the workload table (DESIGN.md §16). ratchet marks the
// entries whose regression is a slowdown: their rows' p50 is held to the
// committed baseline on top of every row's invariants.
var perfWorkloads = []struct {
	name    string
	ratchet bool
	run     func() ([]perfRow, error)
}{
	{"sweep", true, perfSweep},
	{"lp", true, perfLP},
	{"cache", false, perfCache},
	{"race", false, perfRace},
	{"frontier", false, perfFrontier},
	{"scale", false, perfScale},
}

// Perf runs the named workloads ("all" or a comma-separated list; empty
// means all), prints every row and the check's verdicts, and fails when a
// bar does. With check it ratchets the rows against BENCH_perf.json and
// writes nothing; otherwise it merges them into the file, unratcheted.
func Perf(names string, check bool) error {
	want := map[string]bool{}
	for _, name := range strings.Split(names, ",") {
		want[strings.TrimSpace(name)] = true
	}
	all := names == "" || want["all"]
	var known []string
	matched := 0
	for _, w := range perfWorkloads {
		known = append(known, w.name)
		if want[w.name] {
			matched++
		}
	}
	if !all && matched != len(want) {
		return fmt.Errorf("-perf %q: want all, or a comma-separated list of %s", names, strings.Join(known, ", "))
	}
	var rows []perfRow
	for _, w := range perfWorkloads {
		if !all && !want[w.name] {
			continue
		}
		fmt.Printf("== perf: %s ==\n", w.name)
		got, err := w.run()
		if err != nil {
			return fmt.Errorf("perf %s: %w", w.name, err)
		}
		for i := range got {
			got[i].Host.CPUs, got[i].Host.Go = runtime.NumCPU(), runtime.Version()
			got[i].Date = time.Now().Format("2006-01-02")
			got[i].ratchet = w.ratchet
			printRow(os.Stdout, got[i])
		}
		rows = append(rows, got...)
	}

	base, err := readRows(perfFile)
	if err != nil && (check || !errors.Is(err, fs.ErrNotExist)) {
		return fmt.Errorf("read baseline: %w", err)
	}
	committed := base
	if !check {
		committed = nil // a refresh holds its rows to their invariants only
	}
	fmt.Println("== perf check ==")
	failed := checkRows(os.Stdout, rows, committed)
	if !check {
		for _, r := range rows {
			if i := slices.IndexFunc(base, func(b perfRow) bool { return b.Workload == r.Workload }); i >= 0 {
				base[i] = r
			} else {
				base = append(base, r)
			}
		}
		sanitize(base)
		data, err := json.MarshalIndent(base, "", "  ")
		if err == nil {
			err = os.WriteFile(perfFile, append(data, '\n'), 0o644)
		}
		if err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", perfFile)
	}
	if len(failed) > 0 {
		return fmt.Errorf("perf gate: %d bar(s) failed: %v", len(failed), failed)
	}
	return nil
}

// checkRows is the one perf check. Every invariant of every row must hold,
// and a ratcheted row's p50 may exceed the p50 of the committed row of the
// same workload by at most ratchetTolerance; a ratcheted row with no
// committed p50 is skipped. It prints a verdict per bar and returns the
// failed ones.
func checkRows(w io.Writer, rows, base []perfRow) []string {
	committed := map[string]perfRow{}
	for _, r := range base {
		committed[r.Workload] = r
	}
	var failed []string
	for _, r := range rows {
		for _, name := range sortedKeys(r.Invariants) {
			verdict := "ok"
			if !r.Invariants[name] {
				verdict = "FAIL"
				failed = append(failed, r.Workload+": "+name)
			}
			fmt.Fprintf(w, "  %-34s %-32s %s\n", r.Workload, name, verdict)
		}
		if !r.ratchet {
			continue
		}
		b, ok := committed[r.Workload]
		if !ok || b.E2E.P50Ns <= 0 {
			fmt.Fprintf(w, "  %-34s %-32s no baseline; skipped\n", r.Workload, "p50 ratchet")
			continue
		}
		ratio := float64(r.E2E.P50Ns) / float64(b.E2E.P50Ns)
		verdict := "ok"
		if ratio > 1+ratchetTolerance {
			verdict = "REGRESSION"
			failed = append(failed, fmt.Sprintf("%s: p50 %.3fx baseline", r.Workload, ratio))
		}
		fmt.Fprintf(w, "  %-34s %-32s %.3fx (%v -> %v; baseline %s, %d CPU, %s) %s\n",
			r.Workload, "p50 ratchet", ratio, time.Duration(b.E2E.P50Ns), time.Duration(r.E2E.P50Ns),
			b.Date, b.Host.CPUs, b.Host.Go, verdict)
	}
	return failed
}

func printRow(w io.Writer, r perfRow) {
	fmt.Fprintf(w, "  %-34s n=%-3d p50 %-12v p95 %-12v", r.Workload, r.E2E.N,
		time.Duration(r.E2E.P50Ns), time.Duration(r.E2E.P95Ns))
	for _, k := range sortedKeys(r.Counters) {
		fmt.Fprintf(w, " %s=%s", k, strconv.FormatFloat(r.Counters[k], 'f', -1, 64))
	}
	fmt.Fprintln(w)
}

func readRows(path string) ([]perfRow, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rows []perfRow
	if err := json.Unmarshal(raw, &rows); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return rows, nil
}

// sanitize zeroes non-finite counters, which encoding/json rejects, so
// one degenerate measurement cannot poison the whole report. Bars are
// evaluated before this, on the raw values.
func sanitize(rows []perfRow) {
	for _, r := range rows {
		for k, v := range r.Counters {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				r.Counters[k] = 0
			}
		}
	}
}

// e2eOf summarizes per-operation times.
func e2eOf(samples []time.Duration) perfE2E {
	s := slices.Clone(samples)
	slices.Sort(s)
	return perfE2E{N: len(s), P50Ns: int64(s[len(s)/2]), P95Ns: int64(s[(len(s)*95+99)/100-1])}
}

// timed runs op n times and returns each run's wall-clock time.
func timed(n int, op func() error) ([]time.Duration, error) {
	lat := make([]time.Duration, n)
	for i := range lat {
		t0 := time.Now()
		if err := op(); err != nil {
			return nil, err
		}
		lat[i] = time.Since(t0)
	}
	return lat, nil
}

// heapTotals reads the process's cumulative heap allocation counts.
func heapTotals() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

// addAllocs records in counters the heap bytes and objects allocated
// since m0, per operation of n: bytes_per_op and allocs_per_op.
func addAllocs(counters map[string]float64, m0 runtime.MemStats, n int) {
	m1 := heapTotals()
	counters["bytes_per_op"] = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n)
	counters["allocs_per_op"] = float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
