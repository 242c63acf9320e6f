package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// boundedMetric is an end-to-end metric of BENCHMARK.json.
type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchmarkDef is the part of BENCHMARK.json the benchmark itself reads.
type benchmarkDef struct {
	EndToEnd []boundedMetric `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
}

func readBenchmarkDef(path string) (*benchmarkDef, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var def benchmarkDef
	if err := json.Unmarshal(data, &def); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &def, nil
}

// readRecords reads the JSON lines -out appends.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for n := 1; sc.Scan(); n++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		out = append(out, rec)
	}
	return out, sc.Err()
}

// compareFiles prints, for each workload and end-to-end metric, the median
// and quartiles of set a and set b, and marks a difference between the
// medians larger than the metric's bound. It reports false when such a
// difference exists or a run in either set failed a check.
func compareFiles(w io.Writer, defPath, pathA, pathB string) (bool, error) {
	def, err := readBenchmarkDef(defPath)
	if err != nil {
		return false, err
	}
	a, err := readRecords(pathA)
	if err != nil {
		return false, err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return false, err
	}
	byWorkload := func(recs []record) map[string][]record {
		m := map[string][]record{}
		for _, r := range recs {
			m[r.Workload] = append(m[r.Workload], r)
		}
		return m
	}
	wa, wb := byWorkload(a), byWorkload(b)
	var names []string
	for n := range wa {
		names = append(names, n)
	}
	for n := range wb {
		if _, ok := wa[n]; !ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	ok := true
	for _, wl := range names {
		ra, rb := wa[wl], wb[wl]
		fmt.Fprintf(w, "== %s: %d runs in a, %d runs in b ==\n", wl, len(ra), len(rb))
		if len(ra) == 0 || len(rb) == 0 {
			fmt.Fprintf(w, "  MISSING: a workload needs runs in both sets\n")
			ok = false
			continue
		}
		for _, set := range [][]record{ra, rb} {
			for _, r := range set {
				if !r.Result.Correct || r.Result.Failed > 0 {
					fmt.Fprintf(w, "  FAILED run (seed %d): %d of %d checks failed\n",
						r.Host.Seed, r.Result.Failed, r.Result.Attempted)
					ok = false
				}
			}
		}
		fmt.Fprintf(w, "  %-12s %-5s %30s %30s %9s %6s\n", "metric", "unit", "a median [q1, q3]", "b median [q1, q3]", "b vs a", "bound")
		for _, m := range def.EndToEnd {
			va, vb := values(ra, m.Name), values(rb, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "  %-12s MISSING\n", m.Name)
				ok = false
				continue
			}
			ma, mb := median(va), median(vb)
			diff := (mb - ma) / ma
			mark := ""
			if math.Abs(diff) > m.Bound || math.IsNaN(diff) {
				mark = "  DIFF"
				ok = false
			}
			fmt.Fprintf(w, "  %-12s %-5s %30s %30s %+8.2f%% %5.0f%%%s\n", m.Name, m.Unit,
				spreadCell(va), spreadCell(vb), 100*diff, 100*m.Bound, mark)
		}
	}
	return ok, nil
}

func values(recs []record, name string) []float64 {
	var out []float64
	for _, r := range recs {
		if m, ok := r.Result.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func spreadCell(xs []float64) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g]", median(xs), q1, q3)
}
