package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"sos"
	"sos/internal/arch"
	"sos/internal/expts"
	"sos/internal/telemetry"
)

// frontierBenchFile is the committed frontier-store baseline; the CI
// gate re-measures the report's own invariants (repeat-sweep speedup,
// delta-point accounting, frontier equality), so the file is an artifact
// and a record, not a machine-specific ns/op ratchet.
const frontierBenchFile = "BENCH_frontier.json"

// frontierSweepResult is one repeat-sweep measurement on one workload.
type frontierSweepResult struct {
	Workload string `json:"workload"`
	Points   int    `json:"points"`
	// Cold/cached p50 over the sweep stream (first sweep excluded from
	// the cached p50: it is the miss that fills the store).
	ColdP50Ns   int64   `json:"cold_p50_ns"`
	CachedP50Ns int64   `json:"cached_p50_ns"`
	SpeedupP50  float64 `json:"speedup_p50"`
	Identical   bool    `json:"identical_to_cold"`
}

// frontierDeltaResult pins the delta-resolve path by point accounting.
type frontierDeltaResult struct {
	Workload string `json:"workload"`
	// FullPoints is the whole frontier; CoveredPoints were served from
	// the partial store; DeltaPoints were actually solved — the invariant
	// is Delta == Full - Covered.
	FullPoints    int   `json:"full_points"`
	CoveredPoints int   `json:"covered_points"`
	DeltaPoints   int64 `json:"delta_points"`
	// DeltaNs vs ColdNs: the partially covered sweep against the cold
	// full sweep.
	ColdNs  int64 `json:"cold_full_ns"`
	DeltaNs int64 `json:"delta_sweep_ns"`
}

type frontierPerfReport struct {
	Date      string                `json:"date"`
	GoVersion string                `json:"go_version"`
	NumCPU    int                   `json:"num_cpu"`
	Sweeps    []frontierSweepResult `json:"repeat_sweeps"`
	Delta     frontierDeltaResult   `json:"delta_resolve"`
}

// frontierBenchWorkloads are the paper's three published frontiers — the
// Table II stream is the acceptance workload, Tables IV/V ride along.
func frontierBenchWorkloads() []struct {
	name string
	spec sos.Spec
} {
	g1, lib1 := expts.Example1()
	g2, lib2 := expts.Example2()
	return []struct {
		name string
		spec sos.Spec
	}{
		{"table2-p2p", sos.Spec{Graph: g1, Library: lib1, Pool: expts.Example1Pool(lib1),
			Engine: sos.EngineCombinatorial}},
		{"table4-p2p", sos.Spec{Graph: g2, Library: lib2, Pool: expts.Example2Pool(lib2),
			Engine: sos.EngineCombinatorial}},
		{"table5-bus", sos.Spec{Graph: g2, Library: lib2, Pool: expts.Example2Pool(lib2),
			Topology: arch.Bus{}, Engine: sos.EngineCombinatorial}},
	}
}

func sameFrontiers(a, b []sos.FrontierPoint) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Cost != b[i].Cost || a[i].Perf != b[i].Perf ||
			a[i].Status != b[i].Status || a[i].Gap != b[i].Gap {
			return false
		}
	}
	return true
}

// PerfFrontier measures the frontier store on the paper workloads and
// writes BENCH_frontier.json:
//
//   - repeat sweeps: each workload swept once cold to fill the store,
//     then repeatedly through it — the acceptance bars are a >=1000x
//     p50 win on the second-scale Example 2 streams and >=25x on the
//     millisecond-scale Table II stream (its cold sweep is too fast for
//     a stable larger ratio), with every served frontier bit-identical
//     to the cold sweep;
//   - delta-resolve: a store seeded with the sub-frontier below the head
//     point answers the full-range sweep by solving exactly the head
//     point, pinned by the frontier_delta_points counter.
//
// With -check-baseline it re-measures and fails if any bar is missed,
// instead of writing the file.
func PerfFrontier() error {
	fmt.Println("== Frontier-store performance report ==")
	report := frontierPerfReport{
		Date:      time.Now().Format("2006-01-02"),
		GoVersion: runtime.Version(),
		NumCPU:    runtime.NumCPU(),
	}
	ctx := context.Background()
	const repeats = 9

	for _, w := range frontierBenchWorkloads() {
		// Cold stream: the same sweep solved from scratch every time.
		var coldLat []time.Duration
		var cold []sos.FrontierPoint
		for i := 0; i < repeats; i++ {
			t0 := time.Now()
			pts, err := sos.Frontier(ctx, w.spec)
			if err != nil {
				return fmt.Errorf("perf-frontier %s cold: %w", w.name, err)
			}
			coldLat = append(coldLat, time.Since(t0))
			cold = pts
		}

		// Cached stream: first sweep misses and fills the store, the rest
		// are served from it.
		cache, err := sos.NewCache(sos.CacheOptions{})
		if err != nil {
			return err
		}
		sp := w.spec
		sp.Cache = cache
		identical := true
		var cachedLat []time.Duration
		for i := 0; i < repeats; i++ {
			t0 := time.Now()
			pts, err := sos.Frontier(ctx, sp)
			if err != nil {
				cache.Close()
				return fmt.Errorf("perf-frontier %s cached: %w", w.name, err)
			}
			if i > 0 {
				cachedLat = append(cachedLat, time.Since(t0))
			}
			if !sameFrontiers(cold, pts) {
				identical = false
			}
		}
		cache.Close()

		r := frontierSweepResult{
			Workload: w.name, Points: len(cold),
			ColdP50Ns: p50(coldLat), CachedP50Ns: p50(cachedLat),
			Identical: identical,
		}
		if r.CachedP50Ns > 0 {
			r.SpeedupP50 = float64(r.ColdP50Ns) / float64(r.CachedP50Ns)
		}
		report.Sweeps = append(report.Sweeps, r)
		fmt.Printf("  %s: %d points, p50 %v -> %v (%.0fx), identical=%v\n",
			r.Workload, r.Points, time.Duration(r.ColdP50Ns), time.Duration(r.CachedP50Ns),
			r.SpeedupP50, r.Identical)
	}

	// --- Delta-resolve on Table II -----------------------------------
	w := frontierBenchWorkloads()[0]
	t0 := time.Now()
	full, err := sos.Frontier(ctx, w.spec)
	if err != nil {
		return err
	}
	coldNs := time.Since(t0)
	tel := telemetry.New(nil)
	cache, err := sos.NewCache(sos.CacheOptions{Telemetry: tel})
	if err != nil {
		return err
	}
	defer cache.Close()
	part := w.spec
	part.Cache = cache
	part.CostCap = full[0].Cost - 1 // store everything below the head point
	covered, err := sos.Frontier(ctx, part)
	if err != nil {
		return err
	}
	part.CostCap = 0
	t0 = time.Now()
	merged, err := sos.Frontier(ctx, part)
	if err != nil {
		return err
	}
	deltaNs := time.Since(t0)
	dr := frontierDeltaResult{
		Workload:   w.name,
		FullPoints: len(full), CoveredPoints: len(covered),
		DeltaPoints: tel.Get(telemetry.CtrFrontierDeltaPoints),
		ColdNs:      int64(coldNs), DeltaNs: int64(deltaNs),
	}
	report.Delta = dr
	fmt.Printf("  delta-resolve: %d covered + %d solved = %d points, sweep %v vs cold %v\n",
		dr.CoveredPoints, dr.DeltaPoints, dr.FullPoints,
		time.Duration(dr.DeltaNs), time.Duration(dr.ColdNs))

	deltaOK := dr.DeltaPoints == int64(dr.FullPoints-dr.CoveredPoints) &&
		sameFrontiers(full, merged)

	if *checkBaseline {
		var failed []string
		for _, r := range report.Sweeps {
			if !r.Identical {
				failed = append(failed, fmt.Sprintf("%s: cached frontier diverged from cold sweep", r.Workload))
			}
		}
		// The Table II cold sweep is ~1ms, so its ratio is noise-prone:
		// it gets a conservative 25x floor, while the second-scale
		// Example 2 workloads carry the >=1000x bar with ~30x margin.
		if s := report.Sweeps[0].SpeedupP50; s < 25 {
			failed = append(failed, fmt.Sprintf("table2 repeat-sweep p50 speedup %.0fx < 25x", s))
		}
		for _, r := range report.Sweeps[1:] {
			if r.SpeedupP50 < 1000 {
				failed = append(failed, fmt.Sprintf("%s repeat-sweep p50 speedup %.0fx < 1000x", r.Workload, r.SpeedupP50))
			}
		}
		if !deltaOK {
			failed = append(failed, fmt.Sprintf("delta accounting: %d solved for %d uncovered points",
				dr.DeltaPoints, dr.FullPoints-dr.CoveredPoints))
		}
		if len(failed) > 0 {
			return fmt.Errorf("frontier perf gate: %v", failed)
		}
		fmt.Println("  frontier perf gate: all bars met")
		fmt.Println()
		return nil
	}

	f, err := os.Create(frontierBenchFile)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n\n", frontierBenchFile)
	return nil
}
