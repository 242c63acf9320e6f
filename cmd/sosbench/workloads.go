package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"sos"
	"sos/internal/arch"
	"sos/internal/expts"
	"sos/internal/lp"
	"sos/internal/milp"
	"sos/internal/model"
	"sos/internal/sim"
	"sos/internal/taskgraph"
	"sos/internal/telemetry"
)

// perfSweep times the Table II MILP sweep from cap 14, as sos.Frontier
// runs it for EngineMILP; every run must return the Table II frontier.
// The model counters are totals over the row's runs; the heap allocation
// counters (bytes_per_op, allocs_per_op) are per run. The row keeps the
// name sweep/workers-1 so that the ratchet holds it to its committed
// baseline.
func perfSweep() ([]perfRow, error) {
	g, lib := expts.Example1()
	pool := expts.Example1Pool(lib)
	b0, c0 := model.BuildCount(), model.CloneCount()
	points, table2 := 0, true
	m0 := heapTotals()
	lat, err := timed(reps, func() error {
		pts, err := sos.Frontier(context.Background(), sos.Spec{Graph: g, Library: lib, Pool: pool,
			Engine: sos.EngineMILP, Budget: *budgetFlag, CostCap: 14})
		points = len(pts)
		table2 = table2 && err == nil && paperFrontier(pts, expts.Table2Full)
		return err
	})
	if err != nil {
		return nil, err
	}
	row := perfRow{
		Workload: "sweep/workers-1",
		E2E:      e2eOf(lat),
		Counters: map[string]float64{
			"points":       float64(points),
			"model_builds": float64(model.BuildCount() - b0),
			"model_clones": float64(model.CloneCount() - c0),
		},
		Invariants: map[string]bool{"table2_frontier": table2},
	}
	addAllocs(row.Counters, m0, reps)
	return []perfRow{row}, nil
}

// perfLP times the root LP of two pinned models under each kernel
// configuration: the Example 2 relaxation at cap 15, and a 300-subtask
// forced-mapping series-parallel pipeline, the regime that separates the
// dense tableau from the sparse revised simplex. Every configuration must
// reach its model's dense optimum (1e-6 relative). Each row also counts
// the heap bytes and objects one solve allocates.
func perfLP() ([]perfRow, error) {
	g2, lib2 := expts.Example2()
	ex2, err := model.Build(g2, expts.Example2Pool(lib2), arch.PointToPoint{},
		model.Options{Objective: model.MinMakespan, CostCap: 15})
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(13))
	gsp := taskgraph.SeriesParallel(rng, taskgraph.StructuredSpec{Subtasks: 300, MaxFan: 4})
	sp300, err := model.Build(gsp, arch.ForcedPool(rng, 300), arch.PointToPoint{},
		model.Options{Objective: model.MinMakespan})
	if err != nil {
		return nil, err
	}
	dense := lp.Options{Kernel: lp.KernelDense}
	sparse := lp.Options{Kernel: lp.KernelSparse}
	presolve := lp.Options{Kernel: lp.KernelSparse, Presolve: true}
	var rows []perfRow
	ref := map[*model.Model]float64{}
	for _, c := range []struct {
		name string
		m    *model.Model
		opts lp.Options
	}{
		{"example2-root-dense", ex2, dense}, {"example2-root-sparse", ex2, sparse},
		{"example2-root-sparse-presolve", ex2, presolve},
		{"sp300-root-dense", sp300, dense}, {"sp300-root-sparse", sp300, sparse},
		{"sp300-root-sparse-presolve", sp300, presolve},
	} {
		var obj float64
		m0 := heapTotals()
		lat, err := timed(reps, func() error {
			sol, err := c.m.Prob.Solve(&c.opts)
			if err == nil && sol.Status != lp.Optimal {
				err = fmt.Errorf("status %v", sol.Status)
			} else if err == nil {
				obj = sol.Obj
			}
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.name, err)
		}
		if _, ok := ref[c.m]; !ok {
			ref[c.m] = obj // the dense kernel runs first
		}
		row := perfRow{Workload: "lp/" + c.name, E2E: e2eOf(lat),
			Counters:   map[string]float64{"objective": obj},
			Invariants: map[string]bool{"kernels_agree": math.Abs(obj-ref[c.m]) <= 1e-6*(1+math.Abs(ref[c.m]))},
		}
		addAllocs(row.Counters, m0, reps)
		rows = append(rows, row)
	}
	return rows, nil
}

// cacheCorpus builds the structured workload set: the two paper examples
// plus seeded series-parallel graphs with random 3-type libraries — the
// regime PAPERS.md's fork-join corpora argue dominates real traffic.
func cacheCorpus(n int) []sos.Spec {
	g1, lib1 := expts.Example1()
	g2, lib2 := expts.Example2()
	specs := []sos.Spec{
		{Graph: g1, Library: lib1, Pool: expts.Example1Pool(lib1), Engine: sos.EngineCombinatorial},
		{Graph: g2, Library: lib2, Pool: expts.Example2Pool(lib2), Engine: sos.EngineCombinatorial},
	}
	for seed := int64(1); len(specs) < n; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// 5-7 subtasks keeps each uncapped exact solve in the low
		// milliseconds; past ~8 the 6-instance assignment space explodes
		// and a single cold solve dominates the whole stream.
		g := taskgraph.SeriesParallel(rng, taskgraph.StructuredSpec{Subtasks: 5 + rng.Intn(3), MaxFan: 3})
		if err := g.Freeze(); err != nil {
			continue
		}
		lib := arch.RandomLibrary(rng, g, 3)
		specs = append(specs, sos.Spec{Graph: g, Library: lib, Pool: arch.AutoPool(lib, g, 2),
			Engine: sos.EngineCombinatorial})
	}
	return specs
}

// solveVia times one request through the cache c (nil: uncached).
func solveVia(sp sos.Spec, c *sos.Cache) (time.Duration, error) {
	sp.Cache = c
	t0 := time.Now()
	_, err := sos.Synthesize(context.Background(), sp)
	return time.Since(t0), err
}

// perfCache measures the result cache (DESIGN.md §13.6): a repeat-heavy
// stream's p50 with and without it (≥5x), its total-time overhead on
// all-distinct requests (≤5%), and the MILP nodes of an Example 1 cap-13
// solve seeded by the cached cap-5 proof (≤ cold).
func perfCache() ([]perfRow, error) {
	corpus := cacheCorpus(8)
	stream := append([]sos.Spec(nil), corpus...)
	for i := 0; i < 56; i++ {
		sp := corpus[i%len(corpus)]
		if i%2 == 1 {
			sp.CostCap = 1e6 // relaxed cap: covered by the uncapped proof
		}
		stream = append(stream, sp)
	}
	tel := telemetry.New(nil)
	c, err := sos.NewCache(sos.CacheOptions{Telemetry: tel})
	if err != nil {
		return nil, err
	}
	defer c.Close()
	lat := map[*sos.Cache][]time.Duration{}
	for _, cache := range []*sos.Cache{nil, c} {
		for i, sp := range stream {
			el, err := solveVia(sp, cache)
			if err != nil {
				return nil, fmt.Errorf("repeat-heavy request %d: %w", i, err)
			}
			lat[cache] = append(lat[cache], el)
		}
	}
	cold, cached := e2eOf(lat[nil]), e2eOf(lat[c])
	speedup := float64(cold.P50Ns) / float64(cached.P50Ns)
	hits := tel.Get(telemetry.CtrCacheHits)
	rows := []perfRow{{Workload: "cache/repeat-heavy", E2E: cached,
		Counters: map[string]float64{
			"requests": float64(len(stream)), "distinct_specs": float64(len(corpus)),
			"cache_hits": float64(hits), "cache_near_hits": float64(tel.Get(telemetry.CtrCacheNearHits)),
			"cache_misses": float64(tel.Get(telemetry.CtrCacheMisses)),
			"hit_rate":     float64(hits) / float64(len(stream)),
			"cold_p50_ns":  float64(cold.P50Ns), "speedup_p50": speedup,
		},
		Invariants: map[string]bool{"speedup_p50_ge_5x": speedup >= 5},
	}}

	// Each distinct request is solved uncached and then through the cache
	// back to back, so host drift lands on both streams, not the overhead.
	distinct := cacheCorpus(24)
	var coldTotal, cachedTotal, zeroLat []time.Duration
	var overhead []float64
	for rep := 0; rep < reps; rep++ {
		zc, err := sos.NewCache(sos.CacheOptions{})
		if err != nil {
			return nil, err
		}
		var ct, kt time.Duration
		for i, sp := range distinct {
			cl, err := solveVia(sp, nil)
			kl, err2 := solveVia(sp, zc)
			if err != nil || err2 != nil {
				zc.Close()
				return nil, fmt.Errorf("zero-hit request %d: %w", i, errors.Join(err, err2))
			}
			ct, kt, zeroLat = ct+cl, kt+kl, append(zeroLat, kl)
		}
		zc.Close()
		coldTotal, cachedTotal = append(coldTotal, ct), append(cachedTotal, kt)
		overhead = append(overhead, 100*(float64(kt)-float64(ct))/float64(ct))
	}
	slices.Sort(overhead)
	overheadPct := overhead[len(overhead)/2]
	rows = append(rows, perfRow{Workload: "cache/zero-hit", E2E: e2eOf(zeroLat),
		Counters: map[string]float64{
			"requests": float64(len(distinct)), "repetitions": reps, "overhead_pct": overheadPct,
			"cold_total_ns":   float64(e2eOf(coldTotal).P50Ns),
			"cached_total_ns": float64(e2eOf(cachedTotal).P50Ns),
		},
		Invariants: map[string]bool{"overhead_le_5pct": overheadPct <= 5},
	})

	g1, lib1 := expts.Example1()
	cold13 := sos.Spec{Graph: g1, Library: lib1, Pool: expts.Example1Pool(lib1), Engine: sos.EngineMILP, CostCap: 13}
	coldRes, err := sos.Synthesize(context.Background(), cold13)
	if err != nil {
		return nil, err
	}
	wc, err := sos.NewCache(sos.CacheOptions{})
	if err != nil {
		return nil, err
	}
	defer wc.Close()
	seed, warm := cold13, cold13
	seed.CostCap, seed.Cache, warm.Cache = 5, wc, wc
	if _, err := sos.Synthesize(context.Background(), seed); err != nil {
		return nil, err
	}
	t0 := time.Now()
	warmRes, err := sos.Synthesize(context.Background(), warm)
	if err != nil {
		return nil, err
	}
	return append(rows, perfRow{Workload: "cache/warm-start", E2E: e2eOf([]time.Duration{time.Since(t0)}),
		Counters:   map[string]float64{"cold_milp_nodes": float64(coldRes.Nodes), "warm_milp_nodes": float64(warmRes.Nodes)},
		Invariants: map[string]bool{"warm_nodes_le_cold": warmRes.Nodes <= coldRes.Nodes},
	}), nil
}

// paperFrontier reports whether pts holds exactly the paper's points, in
// order (1e-6 absolute).
func paperFrontier(pts []sos.FrontierPoint, paper []expts.ParetoPoint) bool {
	if len(pts) != len(paper) {
		return false
	}
	for i, p := range paper {
		if math.Abs(pts[i].Cost-p.Cost) > 1e-6 || math.Abs(pts[i].Perf-p.Perf) > 1e-6 {
			return false
		}
	}
	return true
}

// sameFrontiers reports whether two frontiers are bit-identical in cost,
// performance and gap, point by point, with equal statuses.
func sameFrontiers(a, b []sos.FrontierPoint) bool {
	if len(a) != len(b) {
		return false
	}
	bits := math.Float64bits
	for i := range a {
		if bits(a[i].Cost) != bits(b[i].Cost) || bits(a[i].Perf) != bits(b[i].Perf) ||
			bits(a[i].Gap) != bits(b[i].Gap) || a[i].Status != b[i].Status {
			return false
		}
	}
	return true
}

// perfRace times the budget-constrained Table II sweep (MILP entry rung,
// anytime ladder, 150 ms per solve, too little for the MILP to certify
// every point; DESIGN.md §14.6) sequentially and raced, alternating.
func perfRace() ([]perfRow, error) {
	const perSolve = 150 * time.Millisecond
	g, lib := expts.Example1()
	tel := telemetry.New(nil)
	lat := map[bool][]time.Duration{}
	var ref []sos.FrontierPoint
	identical := true
	for rep := 0; rep < reps; rep++ {
		for _, race := range []bool{false, true} {
			sp := sos.Spec{Graph: g, Library: lib, Pool: expts.Example1Pool(lib),
				Engine: sos.EngineMILP, Anytime: true, Budget: perSolve, Race: race}
			if race {
				sp.Telemetry = tel
			}
			t0 := time.Now()
			pts, err := sos.Frontier(context.Background(), sp)
			if err != nil {
				return nil, fmt.Errorf("race=%v: %w", race, err)
			}
			lat[race] = append(lat[race], time.Since(t0))
			if ref == nil {
				ref = pts
			}
			identical = identical && sameFrontiers(ref, pts)
		}
	}
	seq, raced := e2eOf(lat[false]), e2eOf(lat[true])
	wm, wc, wh := tel.Get(telemetry.CtrRaceWinsMILP), tel.Get(telemetry.CtrRaceWinsComb), tel.Get(telemetry.CtrRaceWinsHeur)
	return []perfRow{{Workload: "race/table2-milp-entry", E2E: raced,
		Counters: map[string]float64{
			"per_solve_budget_ms": float64(perSolve.Milliseconds()), "points": float64(len(ref)),
			"sequential_p50_ns": float64(seq.P50Ns), "speedup_p50": float64(seq.P50Ns) / float64(raced.P50Ns),
			"race_wins_milp": float64(wm), "race_wins_comb": float64(wc), "race_wins_heur": float64(wh),
			"race_canceled": float64(tel.Get(telemetry.CtrRaceCanceled)),
		},
		Invariants: map[string]bool{
			"identical_frontier":           identical,
			"raced_faster_than_sequential": raced.P50Ns < seq.P50Ns,
			"some_race_won":                wm+wc+wh > 0,
		},
	}}, nil
}

// perfFrontier times repeat sweeps of the paper's three frontiers served
// from a cache's proof chains against cold sweeps (DESIGN.md §15.6). The
// Table II bar is 25x, not 1000x: its millisecond cold sweep is too fast
// for a stable larger ratio. Each row also counts the combinatorial
// engine's mapping and scheduling nodes on one collected cold sweep. The
// delta row seeds a cache with Table II below its head point and sweeps
// the full range.
func perfFrontier() ([]perfRow, error) {
	const repeats = 9
	ctx := context.Background()
	g1, lib1 := expts.Example1()
	g2, lib2 := expts.Example2()
	table2 := sos.Spec{Graph: g1, Library: lib1, Pool: expts.Example1Pool(lib1), Engine: sos.EngineCombinatorial}
	table4 := sos.Spec{Graph: g2, Library: lib2, Pool: expts.Example2Pool(lib2), Engine: sos.EngineCombinatorial}
	table5 := table4
	table5.Topology = arch.Bus{}
	var rows []perfRow
	for _, w := range []struct {
		name string
		bar  float64
		spec sos.Spec
	}{{"table2-p2p", 25, table2}, {"table4-p2p", 1000, table4}, {"table5-bus", 1000, table5}} {
		var cold []sos.FrontierPoint
		coldLat, err := timed(repeats, func() (err error) {
			cold, err = sos.Frontier(ctx, w.spec)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("%s cold: %w", w.name, err)
		}
		c, err := sos.NewCache(sos.CacheOptions{})
		if err != nil {
			return nil, err
		}
		sp := w.spec
		sp.Cache = c
		identical := true
		servedLat, err := timed(repeats, func() error {
			pts, err := sos.Frontier(ctx, sp)
			identical = identical && err == nil && sameFrontiers(cold, pts)
			return err
		})
		c.Close()
		if err != nil {
			return nil, fmt.Errorf("%s cached: %w", w.name, err)
		}
		// One more cold sweep, collected, counts the engine's work.
		tel := telemetry.New(nil)
		traced := w.spec
		traced.Telemetry = tel
		if _, err := sos.Frontier(ctx, traced); err != nil {
			return nil, fmt.Errorf("%s traced: %w", w.name, err)
		}
		coldE, servedE := e2eOf(coldLat), e2eOf(servedLat[1:]) // the first sweep fills the cache
		speedup := float64(coldE.P50Ns) / float64(servedE.P50Ns)
		rows = append(rows, perfRow{Workload: "frontier/" + w.name, E2E: servedE,
			Counters: map[string]float64{"points": float64(len(cold)), "cold_p50_ns": float64(coldE.P50Ns), "speedup_p50": speedup,
				"map_nodes": float64(tel.Get(telemetry.CtrMapNodes)), "sched_nodes": float64(tel.Get(telemetry.CtrSchedNodes))},
			Invariants: map[string]bool{
				"identical_to_cold":                      identical,
				fmt.Sprintf("speedup_p50_ge_%gx", w.bar): speedup >= w.bar,
			},
		})
	}

	full, err := sos.Frontier(ctx, table2)
	if err != nil {
		return nil, err
	}
	tel := telemetry.New(nil)
	c, err := sos.NewCache(sos.CacheOptions{Telemetry: tel})
	if err != nil {
		return nil, err
	}
	defer c.Close()
	part := table2
	part.Cache = c
	part.CostCap = full[0].Cost - 1 // cache everything below the head point
	covered, err := sos.Frontier(ctx, part)
	if err != nil {
		return nil, err
	}
	part.CostCap = 0
	t0 := time.Now()
	merged, err := sos.Frontier(ctx, part)
	if err != nil {
		return nil, err
	}
	delta := tel.Get(telemetry.CtrFrontierDeltaPoints)
	return append(rows, perfRow{Workload: "frontier/table2-delta", E2E: e2eOf([]time.Duration{time.Since(t0)}),
		Counters: map[string]float64{
			"full_points": float64(len(full)), "covered_points": float64(len(covered)), "delta_points": float64(delta),
		},
		Invariants: map[string]bool{
			"delta_points_eq_uncovered": delta == int64(len(full)-len(covered)),
			"identical_to_cold":         sameFrontiers(full, merged),
		},
	}), nil
}

// perfScale builds and solves forced-mapping structured instances (50-800
// subtasks, series-parallel and fork-join) with the sparse kernel,
// presolve and root cuts. With the mapping forced and no link shared, the
// optimum is the self-timed (ASAP) execution of the forced design, so the
// MILP objective must equal sim.SelfTimed's makespan, and from 400
// subtasks up the model build must take at most a fifth of build+solve.
// E2E is build+solve.
func perfScale() ([]perfRow, error) {
	var rows []perfRow
	for _, shape := range []struct {
		name string
		gen  func(*rand.Rand, taskgraph.StructuredSpec) *taskgraph.Graph
	}{{"series-parallel", taskgraph.SeriesParallel}, {"fork-join", taskgraph.ForkJoin}} {
		for _, n := range []int{50, 100, 200, 400, 800} {
			rng := rand.New(rand.NewSource(int64(n)))
			g := shape.gen(rng, taskgraph.StructuredSpec{Subtasks: n, MaxFan: 4})
			pool := arch.ForcedPool(rng, n)
			t0 := time.Now()
			m, err := model.Build(g, pool, arch.PointToPoint{}, model.Options{})
			if err != nil {
				return nil, fmt.Errorf("%s/%d build: %w", shape.name, n, err)
			}
			build := time.Since(t0)
			design, sol, err := m.Solve(context.Background(), &milp.Options{
				TimeLimit: 2 * time.Minute,
				RootCuts:  true,
				LP:        &lp.Options{Kernel: lp.KernelSparse, Presolve: true},
			})
			if err != nil {
				return nil, fmt.Errorf("%s/%d solve: %w", shape.name, n, err)
			}
			total := time.Since(t0)
			oracle := false
			if design != nil {
				tr, err := sim.SelfTimed(design)
				oracle = err == nil && math.Abs(sol.Obj-tr.Makespan) <= 1e-6*math.Max(1, math.Abs(tr.Makespan))
			}
			st := m.Stats
			row := perfRow{Workload: fmt.Sprintf("scale/%s-%d", shape.name, n), E2E: e2eOf([]time.Duration{total}),
				Counters: map[string]float64{
					"vars": float64(st.TimingVars + st.BinaryVars + st.ContinuousAux), "rows": float64(st.Constraints),
					"nodes": float64(sol.Nodes), "objective": sol.Obj,
					"build_ns": float64(build), "solve_ns": float64(total - build),
				},
				Invariants: map[string]bool{
					"optimal_at_1_node":       sol.Status == milp.Optimal && sol.Nodes == 1,
					"objective_eq_self_timed": oracle,
				},
			}
			if n >= 400 {
				// Building the model must stay cheap next to solving it.
				row.Invariants["build_under_20pct"] = build <= total/5
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}
