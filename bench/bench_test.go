package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

// TestSmoke runs each workload once in its smallest form — the cheapest
// item of a batch workload, with the scale instances cut to 100 subtasks,
// and one sosd process with short rate steps for sosd-mixed — with tracing
// on, and checks that every metric BENCHMARK.json names is printed with
// its unit and that no check failed.
func TestSmoke(t *testing.T) {
	defer func(sizes []int) { scaleSizes = sizes }(scaleSizes)
	scaleSizes = []int{100}
	def, err := readBenchmarkDef("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	sosd := filepath.Join(dir, "sosd")
	t0 := time.Now()
	if out, err := exec.Command("go", "build", "-o", sosd, "sos/cmd/sosd").CombinedOutput(); err != nil {
		t.Fatalf("build sosd: %v\n%s", err, out)
	}
	t.Logf("sosd built in %v", time.Since(t0).Round(time.Millisecond))
	if len(def.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(def.Workloads), len(workloads))
	}
	for i, wl := range workloads {
		if def.Workloads[i].Name != wl.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q here", i, def.Workloads[i].Name, wl.name)
		}
		spans := filepath.Join(dir, wl.name+".jsonl")
		cfg := config{seed: 1, seconds: 3, trace: true, traceOut: spans, sosd: sosd, smoke: true}
		var buf bytes.Buffer
		t0 := time.Now()
		res, err := runOne(&buf, wl, cfg, "")
		t.Logf("%s: %v", wl.name, time.Since(t0).Round(time.Millisecond))
		if err != nil {
			t.Fatalf("%s: %v", wl.name, err)
		}
		report := buf.String()
		if !res.Correct || res.Failed != 0 {
			t.Errorf("%s: %d of %d checks failed\n%s", wl.name, res.Failed, res.Attempted, report)
		}
		for _, m := range def.EndToEnd {
			if !printed(report, m.Name, m.Unit) {
				t.Errorf("%s: end-to-end metric %s [%s] not printed\n%s", wl.name, m.Name, m.Unit, report)
			}
		}
		for _, m := range def.PerLayer {
			got, ok := res.Metrics[m.Name]
			if !ok || got.Unit != m.Unit || !printed(report, m.Name, m.Unit) {
				t.Errorf("%s: per-layer metric %s [%s] missing from the result (%+v)", wl.name, m.Name, m.Unit, got)
			}
		}
		if len(res.Metrics) != len(def.PerLayer) {
			t.Errorf("%s: result has %d metrics, BENCHMARK.json lists %d per-layer metrics", wl.name, len(res.Metrics), len(def.PerLayer))
		}
		if n := countLines(t, spans); n == 0 {
			t.Errorf("%s: no spans written", wl.name)
		}
	}
}

func printed(report, name, unit string) bool {
	re := regexp.MustCompile(`(?m)^\s+` + regexp.QuoteMeta(name) + `\s+\S+\s+` + regexp.QuoteMeta(unit) + `$`)
	return re.MatchString(report)
}

func countLines(t *testing.T, path string) int {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	n := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		n++
	}
	return n
}

func sp(id, parent int, layer string, start, end time.Duration) span {
	return span{ID: id, Parent: parent, Trace: 1, Name: layer, Layer: layer, Start: start, End: end}
}

// TestSelfTimes pins the self-time arithmetic: a parent's self time is its
// duration minus the union of its children's intervals, for nested,
// back-to-back and overlapping children.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		sp(1, 0, benchLayer, 0, 100),
		sp(2, 1, "model", 10, 30), // back to back with 3
		sp(3, 1, "lp", 30, 50),
		sp(4, 3, "milp", 35, 45), // nested in 3
		sp(5, 1, "sim", 60, 80),  // overlaps 6
		sp(6, 1, "sim", 70, 90),
	}
	want := []time.Duration{100 - 20 - 20 - 30, 20, 10, 10, 20, 20}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("span %d self time %v, want %v", i+1, got, want[i])
		}
	}
	self, total, coverage := breakdown(spans)
	if total != 100 || self[benchLayer] != 30 || self["sim"] != 40 || self["milp"] != 10 {
		t.Errorf("breakdown %v total %v", self, total)
	}
	if math.Abs(coverage-0.7) > 1e-12 {
		t.Errorf("coverage %v, want 0.7", coverage)
	}
}

// TestTail pins the percentile rule: the highest percentile with at least
// ten samples beyond it, or the maximum when that would not be above the
// median.
func TestTail(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending, so tail must sort
		}
		return xs
	}
	for _, c := range []struct {
		n         int
		pct, want float64
	}{
		{1000, 99, 990},
		{35, 100 * 25.0 / 35, 25},
		{21, 100 * 11.0 / 21, 11},
		{20, 100, 20},
	} {
		pct, v := tail(seq(c.n))
		if math.Abs(pct-c.pct) > 1e-9 || v != c.want {
			t.Errorf("n=%d: tail %s = %g, want p%g = %g", c.n, pctLabel(pct), v, c.pct, c.want)
		}
	}
}

// TestQuartiles matches Python's statistics.quantiles(xs, n=4).
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{4, 1, 3, 2}, 1.25, 3.75},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{7}, 7, 7},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g, %g; want %g, %g", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median %g, want 2.5", m)
	}
}

// TestCompare checks that -compare accepts two sets within the bounds and
// flags a median moved by more than a metric's bound.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, passS ...float64) string {
		path := filepath.Join(dir, name)
		for _, v := range passS {
			rec := record{Workload: "w", Result: result{Correct: true, Attempted: 1, Metrics: map[string]metric{
				"setup_s": {1, "s"}, "pass_cpu_s": {v, "s"}, "op_cpu_p50_ms": {1, "ms"},
				"op_cpu_tail_ms": {2, "ms"}, "peak_rss_mb": {10, "MB"}}}}
			if err := appendRecord(path, rec); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	a := write("a", 1.00, 1.02, 0.98)
	b := write("b", 1.01, 1.03, 0.99)
	c := write("c", 1.30, 1.31, 1.29)
	var out bytes.Buffer
	if ok, err := compareFiles(&out, "../BENCHMARK.json", a, b); err != nil || !ok {
		t.Errorf("a vs b: ok=%v err=%v\n%s", ok, err, out.String())
	}
	out.Reset()
	if ok, err := compareFiles(&out, "../BENCHMARK.json", a, c); err != nil || ok {
		t.Errorf("a vs c: ok=%v err=%v, want a flagged difference\n%s", ok, err, out.String())
	}
}
