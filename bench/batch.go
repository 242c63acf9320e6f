package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"sos"
	"sos/internal/arch"
	"sos/internal/exact"
	"sos/internal/expts"
	"sos/internal/heur"
	"sos/internal/lp"
	"sos/internal/milp"
	"sos/internal/model"
	"sos/internal/schedule"
	"sos/internal/sim"
	"sos/internal/taskgraph"
)

// item is one call a batch workload makes per pass.
type item struct {
	name  string
	spec  sos.Spec
	sweep bool                // sos.Frontier; otherwise sos.Synthesize
	want  []expts.ParetoPoint // expected frontier of a sweep item
}

// A batch workload's set-up returns its items. By convention items[0] is
// the warm-up item that every set-up runs once, and items[1] is the
// cheapest item, the only one the smoke test runs.
type batchSetup func(ctx context.Context, seed int64) ([]item, error)

// paperMILPItems is the paper's own method on the Example 1 family: Table
// II on point-to-point and on a bus, the §4.2.1 volume study (strict
// semantics) and the §4.2.2 execution-time study. Table II point-to-point
// must equal expts.Table2Full; every other frontier must equal the
// combinatorial engine's, computed here.
func paperMILPItems(ctx context.Context, _ int64) ([]item, error) {
	g1, lib1 := expts.Example1()
	gs, _ := expts.Example1Strict()
	mk := func(name string, g *taskgraph.Graph, lib *arch.Library, topo sos.Topology) item {
		return item{name: name, sweep: true, spec: sos.Spec{Graph: g, Library: lib,
			Pool: expts.Example1Pool(lib), Topology: topo, Engine: sos.EngineMILP}}
	}
	items := []item{
		mk("table2-bus", g1, lib1, sos.Bus()),
		mk("exp1-vol-x6", gs.ScaleVolumes(6), lib1, sos.PointToPoint()),
		mk("exp1-vol-x2", gs.ScaleVolumes(2), lib1, sos.PointToPoint()),
		mk("exp1-vol-x1", gs, lib1, sos.PointToPoint()),
		mk("table2-p2p", g1, lib1, sos.PointToPoint()),
		mk("exp2-exec-x2", g1, lib1.ScaleExec(2), sos.PointToPoint()),
		mk("exp2-exec-x3", g1, lib1.ScaleExec(3), sos.PointToPoint()),
	}
	for i := range items {
		if items[i].name == "table2-p2p" {
			items[i].want = expts.Table2Full
			continue
		}
		ref := items[i].spec
		ref.Engine = sos.EngineCombinatorial
		pts, err := sos.Frontier(ctx, ref)
		if err != nil {
			return nil, fmt.Errorf("%s reference: %w", items[i].name, err)
		}
		for _, p := range pts {
			items[i].want = append(items[i].want, expts.ParetoPoint{Cost: p.Cost, Perf: p.Perf})
		}
	}
	return items, nil
}

// paperCombItems is what users and sosd get by default: the combinatorial
// engine on Tables IV, V and II, checked against the published tables.
func paperCombItems(context.Context, int64) ([]item, error) {
	g1, lib1 := expts.Example1()
	g2, lib2 := expts.Example2()
	return []item{
		{name: "table4", sweep: true, want: expts.Table4,
			spec: sos.Spec{Graph: g2, Library: lib2, Pool: expts.Example2Pool(lib2)}},
		{name: "table2", sweep: true, want: expts.Table2Full,
			spec: sos.Spec{Graph: g1, Library: lib1, Pool: expts.Example1Pool(lib1)}},
		{name: "table5", sweep: true, want: expts.Table5,
			spec: sos.Spec{Graph: g2, Library: lib2, Pool: expts.Example2Pool(lib2), Topology: sos.Bus()}},
	}, nil
}

// scaleSizes and scaleShapes span the large-instance workload.
var (
	scaleSizes  = []int{200, 300, 400}
	scaleShapes = []string{"fork-join", "series-parallel"}
)

// scaleItems generates forced-mapping fork-join and series-parallel
// instances, solved by sos.Synthesize with the MILP engine, the sparse LP
// kernel, presolve and root cuts. Each objective must equal the self-timed
// simulation of its design: with the mapping forced and no shared link,
// the optimum is the ASAP timing of the forced design.
//
// The graph shapes are fixed per size; the seed draws the arc volumes and
// execution times. Model size, and so most of the work, is then the same
// for every seed, and runs with different seeds stay comparable.
func scaleItems(_ context.Context, seed int64) ([]item, error) {
	var items []item
	for _, n := range scaleSizes {
		for si, shape := range scaleShapes {
			shapeRng := rand.New(rand.NewSource(int64(n)*10 + int64(si)))
			dataRng := rand.New(rand.NewSource(seed*1000 + int64(n)*10 + int64(si)))
			g, lib, pool := forcedInstance(shapeRng, dataRng, shape, n)
			items = append(items, item{name: fmt.Sprintf("%s-%d", shape, n), spec: sos.Spec{
				Graph: g, Library: lib, Pool: pool, Topology: sos.PointToPoint(), Engine: sos.EngineMILP,
				LPKernel: sos.LPKernelSparse, LPPresolve: true, RootCuts: true}})
		}
	}
	return items, nil
}

// forcedInstance builds a structured instance whose mapping is forced by
// capability: subtask i runs only on processor type i, one instance each.
// shapeRng draws the graph, dataRng the volumes and execution times.
func forcedInstance(shapeRng, dataRng *rand.Rand, shape string, n int) (*taskgraph.Graph, *arch.Library, *arch.Instances) {
	spec := taskgraph.StructuredSpec{Subtasks: n, MaxFan: 4}
	var g0 *taskgraph.Graph
	if shape == "fork-join" {
		g0 = taskgraph.ForkJoin(shapeRng, spec)
	} else {
		g0 = taskgraph.SeriesParallel(shapeRng, spec)
	}
	g := taskgraph.New(g0.Name)
	for range g0.Subtasks() {
		g.AddSubtask("")
	}
	for _, a := range g0.Arcs() {
		g.AddArc(a.Src, a.Dst, taskgraph.ArcSpec{Volume: 1 + 3*dataRng.Float64()})
	}
	g.MustFreeze()
	lib := arch.NewLibrary("forced", 1, 1, 0)
	copies := make([]int, n)
	for i := 0; i < n; i++ {
		exec := make([]float64, n)
		for a := range exec {
			exec[a] = arch.NoTime
		}
		exec[i] = float64(1 + dataRng.Intn(5))
		lib.AddType("", 1, exec)
		copies[i] = 1
	}
	return g, lib, arch.InstancePool(lib, copies)
}

// A share is one worker process's part of a batch run: its set-up and the
// calls it made. Times are CPU times of the worker (see processCPU), in
// seconds for the set-up and milliseconds for a call; wall-clock times are
// kept beside them as diagnostics.
type share struct {
	Items     []string  `json:"items"`
	SetupS    float64   `json:"setup_s"`
	Calls     []call    `json:"calls"`
	CallsS    float64   `json:"calls_s"` // wall-clock seconds from the first call to the end of the last
	AllocMB   float64   `json:"alloc_mb"`
	KernelMS  []float64 `json:"kernel_ms"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Errs      []string  `json:"errs,omitempty"`
}

// A call is one timed call; PeakMB is the worker's peak resident set
// during it.
type call struct {
	Item   int     `json:"item"`
	CPUMS  float64 `json:"cpu_ms"`
	WallMS float64 `json:"wall_ms"`
	PeakMB float64 `json:"peak_mb"`
}

// batchShare is worker k of n: it sets up the workload once, then makes
// the k-th of n equal slices of the run's calls, stopping early once they
// have taken budget seconds. The run's calls are passCount passes over the
// items, each pass in an order drawn from the seed, so the workers of a
// run together make every pass once.
func batchShare(ctx context.Context, cfg config, wl workload, k, n int, budget float64) (*share, error) {
	r := newReport()
	c0 := selfCPU()
	items, err := wl.setup(ctx, cfg.seed)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	if cfg.smoke {
		items = items[1:2]
	}
	runItem(ctx, items[0], r)
	sh := &share{SetupS: (selfCPU() - c0).Seconds()}
	for _, it := range items {
		sh.Items = append(sh.Items, it.name)
	}

	rng := rand.New(rand.NewSource(cfg.seed))
	var order []int
	for p := passCount(cfg.smoke, cfg.seconds, wl.nominal); p > 0; p-- {
		order = append(order, rng.Perm(len(items))...)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for _, i := range order[k*len(order)/n : (k+1)*len(order)/n] {
		if overTime(start, budget, len(sh.Calls)) {
			break
		}
		// Each call starts from a collected heap, so its peak and its
		// garbage collection depend on it and not on the garbage that the
		// set-up or the previous call left.
		debug.FreeOSMemory()
		if err := resetPeakRSS("self"); err != nil {
			return nil, err
		}
		sh.KernelMS = append(sh.KernelMS, ms(kernelCPU()))
		c, w := runItem(ctx, items[i], r)
		peak, err := peakRSSMB("self")
		if err != nil {
			return nil, err
		}
		sh.Calls = append(sh.Calls, call{Item: i, CPUMS: ms(c), WallMS: ms(w), PeakMB: peak})
	}
	sh.CallsS = time.Since(start).Seconds()
	runtime.ReadMemStats(&m1)
	sh.AllocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	sh.Attempted, sh.Failed, sh.Errs = r.attempted, r.failed, r.firstErrs
	return sh, nil
}

// runShares runs a batch workload's workers one after another, each in a
// process of its own, and returns their shares. The calls of all workers
// together may take slack times the run's seconds: each worker may spend
// an equal part of what the workers before it left, so one worker's
// overrun shortens the others' and does not add up over the run. The
// smoke test, which cannot start the benchmark's own binary, runs one
// worker in this process.
func runShares(ctx context.Context, cfg config, wl workload) ([]*share, error) {
	left := slack * cfg.seconds
	if cfg.smoke {
		sh, err := batchShare(ctx, cfg, wl, 0, 1, left)
		return []*share{sh}, err
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []*share
	for k := 0; k < workers; k++ {
		budget := max(0, left/float64(workers-k))
		cmd := exec.CommandContext(ctx, self, "-workload", wl.name, "-seed", strconv.FormatInt(cfg.seed, 10),
			"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-share", strconv.Itoa(k),
			"-share-budget", strconv.FormatFloat(budget, 'g', -1, 64))
		cmd.Stderr = os.Stderr
		// If the benchmark is killed before the worker ends, the kernel
		// stops the worker too.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		data, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("worker %d: %w", k, err)
		}
		var sh share
		if err := json.Unmarshal(data, &sh); err != nil {
			return nil, fmt.Errorf("worker %d: %w", k, err)
		}
		left -= sh.CallsS
		out = append(out, &sh)
	}
	return out, nil
}

// runBatch runs a batch workload's workers, pools their calls, and with
// tracing on adds one traced pass in this process. The end-to-end times
// are the workers' CPU times scaled by speedScale.
func runBatch(ctx context.Context, cfg config, r *report, wl workload) error {
	shares, err := runShares(ctx, cfg, wl)
	if err != nil {
		return err
	}
	names := shares[0].Items
	cpu := make([][]float64, len(names)) // per item, the CPU time of each call
	wall := make([][]float64, len(names))
	var setupS, rss, kernel []float64
	var allocMB float64
	calls := 0
	for _, sh := range shares {
		r.merge(sh.Attempted, sh.Failed, sh.Errs)
		setupS = append(setupS, sh.SetupS)
		kernel = append(kernel, sh.KernelMS...)
		allocMB += sh.AllocMB
		calls += len(sh.Calls)
		for _, c := range sh.Calls {
			cpu[c.Item], wall[c.Item] = append(cpu[c.Item], c.CPUMS), append(wall[c.Item], c.WallMS)
			rss = append(rss, c.PeakMB)
		}
	}
	// An item's time is its median over its calls, and a pass's time the
	// sum of its items' times. Items differ in size by orders of magnitude,
	// so the middle and the slowest item stand for the typical and the
	// longest call.
	itemCPU := make([]float64, len(names))
	var passS, passWall float64
	for i, name := range names {
		if len(cpu[i]) == 0 {
			return fmt.Errorf("item %s was never timed", name)
		}
		itemCPU[i] = median(cpu[i])
		passS += itemCPU[i] / 1000
		passWall += median(wall[i]) / 1000
		r.extra["item."+name+"_cpu_ms"] = metric{itemCPU[i], "ms"}
		r.extra["item."+name+"_ms"] = metric{median(wall[i]), "ms"}
	}
	scale := speedScale(kernel)
	r.e2e["setup_s"] = metric{scale * median(setupS), "s"}
	r.e2e["pass_cpu_s"] = metric{scale * passS, "s"}
	r.e2e["op_cpu_p50_ms"] = metric{scale * median(itemCPU), "ms"}
	r.e2e["op_cpu_tail_ms"] = metric{scale * slices.Max(itemCPU), "ms"}
	// A call's peak depends on where the collector's cycles fall in it; the
	// median over all calls does not.
	r.e2e["peak_rss_mb"] = metric{median(rss), "MB"}
	r.extra["pass_cpu_raw_s"] = metric{passS, "s"}
	r.extra["pass_wall_s"] = metric{passWall, "s"}
	r.extra["host.kernel_ms"] = metric{median(kernel), "ms"}
	r.extra["alloc_mb"] = metric{allocMB * float64(len(names)) / float64(calls), "MB"}
	r.note("%d workers, each set up once; %d timed calls over %d items", len(shares), calls, len(names))
	if !cfg.trace {
		return nil
	}
	items, err := wl.setup(ctx, cfg.seed)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	if cfg.smoke {
		items = items[1:2]
	}
	runItem(ctx, items[0], r) // warm-up, as in a worker's set-up
	return tracedBatch(ctx, items, passS, r)
}

// runItem makes one item's call, checks the answer off the clock, and
// returns the call's CPU and wall-clock time.
func runItem(ctx context.Context, it item, r *report) (cpu, wall time.Duration) {
	t0, c0 := time.Now(), selfCPU()
	if it.sweep {
		pts, err := sos.Frontier(ctx, it.spec)
		cpu, wall = selfCPU()-c0, time.Since(t0)
		r.check(it.name, firstErr(err, checkFrontier(pts, it.want)))
		return cpu, wall
	}
	res, err := sos.Synthesize(ctx, it.spec)
	cpu, wall = selfCPU()-c0, time.Since(t0)
	if err == nil {
		err = checkScale(res)
	}
	r.check(it.name, err)
	return cpu, wall
}

func firstErr(errs ...error) error {
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}

// near reports whether a and b agree to a relative 1e-6.
func near(a, b float64) bool { return math.Abs(a-b) <= 1e-6*math.Max(1, math.Abs(b)) }

// checkFrontier compares a frontier with the expected (cost, perf) points
// and replays every design.
func checkFrontier(pts []sos.FrontierPoint, want []expts.ParetoPoint) error {
	if len(pts) != len(want) {
		return fmt.Errorf("frontier has %d points, want %d", len(pts), len(want))
	}
	for i, p := range pts {
		if !near(p.Cost, want[i].Cost) || !near(p.Perf, want[i].Perf) {
			return fmt.Errorf("point %d is (%g, %g), want (%g, %g)", i, p.Cost, p.Perf, want[i].Cost, want[i].Perf)
		}
		if p.Status != sos.StatusOptimal {
			return fmt.Errorf("point %d status %v", i, p.Status)
		}
		if err := checkDesign(p.Design); err != nil {
			return fmt.Errorf("point %d: %w", i, err)
		}
	}
	return nil
}

// checkDesign runs a design through the schedule validator and the
// discrete-event replay, which must reproduce its makespan.
func checkDesign(d *schedule.Design) error {
	if d == nil {
		return errors.New("no design")
	}
	if err := d.Validate(nil); err != nil {
		return err
	}
	tr, err := sim.Replay(d)
	if err != nil {
		return err
	}
	if !near(tr.Makespan, d.Makespan) {
		return fmt.Errorf("replay makespan %g, design says %g", tr.Makespan, d.Makespan)
	}
	return nil
}

// checkScale checks a large-instance answer against its oracle: the
// objective equals the self-timed makespan of the design.
func checkScale(res *sos.Result) error {
	if res.Status != sos.StatusOptimal {
		return fmt.Errorf("status %v", res.Status)
	}
	if err := checkDesign(res.Design); err != nil {
		return err
	}
	st, err := sim.SelfTimed(res.Design)
	if err != nil {
		return err
	}
	if !near(res.Design.Makespan, st.Makespan) {
		return fmt.Errorf("objective %g, self-timed makespan %g", res.Design.Makespan, st.Makespan)
	}
	return nil
}

// layerTotals accumulates what the traced pass measures.
type layerTotals struct {
	counters       map[string]int64 // telemetry collector counters
	builds, clones int64
	calls          time.Duration // CPU time of the calls an untraced pass also makes
}

// tracedBatch runs one more pass with spans on. A sweep item is one
// sos.Frontier span carrying the collector's counters, then a probe that
// repeats, for each frontier cap and the final infeasible cap, the public
// calls the sweep makes, each in its own span. A scale item calls the
// layers directly: model.Build, the root relaxation, the MILP, Validate
// and the simulator.
func tracedBatch(ctx context.Context, items []item, passS float64, r *report) error {
	tr := newTracer()
	lt := &layerTotals{counters: map[string]int64{}}
	for i, it := range items {
		trace := i + 1
		if !it.sweep {
			r.check(it.name+" traced", traceScaleItem(ctx, tr, trace, it, lt))
			continue
		}
		tel := sos.NewTelemetry(nil)
		sp := it.spec
		sp.Telemetry = tel
		b0, c0, cpu0 := model.BuildCount(), model.CloneCount(), selfCPU()
		id := tr.begin(trace, 0, "sos.Frontier", "sos")
		pts, err := sos.Frontier(ctx, sp)
		tr.end(id)
		lt.calls += selfCPU() - cpu0
		lt.builds += model.BuildCount() - b0
		lt.clones += model.CloneCount() - c0
		for k, v := range tel.Counters() {
			lt.counters[k] += v
			tr.attr(id, k, float64(v))
		}
		err = firstErr(err, checkFrontier(pts, it.want))
		r.check(it.name+" traced", err)
		if err != nil {
			continue
		}
		probe := tr.begin(trace, 0, "probe", benchLayer)
		caps := []float64{sp.CostCap}
		for _, p := range pts {
			if c := p.Cost - 1; c > 0 {
				caps = append(caps, c)
			}
		}
		for _, c := range caps {
			r.check(fmt.Sprintf("%s probe cap %g", it.name, c), probeCap(ctx, tr, trace, probe, sp, c))
		}
		tr.end(probe)
	}
	self, total, coverage := breakdown(tr.spans)
	setLayerMetrics(r, lt.counters, lt.builds, lt.clones)
	for _, l := range []string{"model", "lp", "milp", "exact", "heur", "schedule", "sim"} {
		r.layer[l+".self_pct"] = metric{pct(self[l], total), "%"}
	}
	for _, n := range []string{"server.queue_pct", "server.solve_pct", "server.http_pct"} {
		r.layer[n] = metric{0, "%"}
	}
	r.layer["trace.coverage_pct"] = metric{100 * coverage, "%"}
	r.layer["trace.overhead_pct"] = metric{100 * (lt.calls.Seconds() - passS) / passS, "%"}
	for l, d := range self {
		r.extra[l+".self_ms"] = metric{ms(d), "ms"}
	}
	r.note("traced pass: %d spans; layer self time over the probes and scale items:", len(tr.spans))
	var b strings.Builder
	printLayerTable(&b, self, total)
	r.notes = append(r.notes, strings.Split(strings.TrimRight(b.String(), "\n"), "\n")...)
	r.spans = tr.spans
	return nil
}

func pct(d, total time.Duration) float64 {
	if total <= 0 {
		return 0
	}
	return 100 * float64(d) / float64(total)
}

// setLayerMetrics fills the counter-based per-layer metrics from a
// telemetry collector's counters and the model build and clone counts.
func setLayerMetrics(r *report, c map[string]int64, builds, clones int64) {
	count := func(name string, v int64) { r.layer[name] = metric{float64(v), "count"} }
	ratio := func(name string, num, den int64) {
		v := 0.0
		if den > 0 {
			v = float64(num) / float64(den)
		}
		r.layer[name] = metric{v, "ratio"}
	}
	count("model.builds", builds)
	count("model.clones", clones)
	count("lp.warm_resolves", c["lp_warm"])
	count("lp.cold_resolves", c["lp_cold"])
	count("lp.dual_iters", c["lp_dual_iters"])
	count("lp.primal_iters", c["lp_primal_iters"])
	count("lp.refactors", c["lp_refactors"])
	ratio("lp.warm_ratio", c["lp_warm"], c["lp_warm"]+c["lp_cold"])
	count("milp.nodes", c["nodes_expanded"])
	ratio("milp.prune_ratio", c["nodes_pruned"], c["nodes_expanded"])
	count("milp.cuts", c["cuts_added"])
	count("exact.map_nodes", c["map_nodes"])
	count("exact.sched_nodes", c["sched_nodes"])
	count("pareto.points", c["points"])
	count("search.incumbents", c["incumbents"])
	ratio("cache.hit_ratio", c["cache_hits"], c["cache_hits"]+c["cache_misses"])
	count("cache.near_hits", c["cache_near_hits"])
	count("cache.coalesced", c["cache_coalesced"])
	count("server.shed", c["req_shed"])
	count("server.degraded", c["req_degraded"])
}

// traceScaleItem makes a scale item's calls directly, one span each.
func traceScaleItem(ctx context.Context, tr *tracer, trace int, it item, lt *layerTotals) error {
	sp := it.spec
	root := tr.begin(trace, 0, it.name, benchLayer)
	defer tr.end(root)
	lpo := &lp.Options{Kernel: sp.LPKernel, Presolve: sp.LPPresolve}
	tel := sos.NewTelemetry(nil)
	// The calls sos.Synthesize makes also count toward the traced pass's
	// CPU time; the root relaxation and the simulator are extra.
	b0, c0 := model.BuildCount(), selfCPU()
	id := tr.begin(trace, root, "model.Build", "model")
	m, err := model.Build(sp.Graph, sp.Pool, sp.Topology, model.Options{CostCap: sp.CostCap})
	tr.end(id)
	lt.calls += selfCPU() - c0
	lt.builds += model.BuildCount() - b0
	if err != nil {
		return err
	}
	if err := tr.do(trace, root, "lp.Solve", "lp", func() error {
		_, err := m.Prob.Solve(lpo)
		return err
	}); err != nil {
		return err
	}
	c0 = selfCPU()
	id = tr.begin(trace, root, "milp.Solve", "milp")
	d, sol, err := m.Solve(ctx, &milp.Options{RootCuts: sp.RootCuts, LP: lpo, Telemetry: tel})
	tr.end(id)
	lt.calls += selfCPU() - c0
	for k, v := range tel.Counters() {
		lt.counters[k] += v
		tr.attr(id, k, float64(v))
	}
	if err != nil {
		return err
	}
	if sol.Status != milp.Optimal || d == nil {
		return fmt.Errorf("status %v", sol.Status)
	}
	c0 = selfCPU()
	id = tr.begin(trace, root, "schedule.Validate", "schedule")
	err = d.Validate(nil)
	tr.end(id)
	lt.calls += selfCPU() - c0
	if err != nil {
		return err
	}
	var st *sim.Trace
	if err := tr.do(trace, root, "sim.SelfTimed", "sim", func() (err error) {
		st, err = sim.SelfTimed(d)
		return err
	}); err != nil {
		return err
	}
	if !near(d.Makespan, st.Makespan) {
		return fmt.Errorf("objective %g, self-timed makespan %g", d.Makespan, st.Makespan)
	}
	return tr.do(trace, root, "sim.Replay", "sim", func() error {
		_, err := sim.Replay(d)
		return err
	})
}

// probeCap repeats, in spans, the public calls a sweep makes at one cost
// cap: the heuristic warm start, model build, root relaxation and MILP
// search, then the lexicographic cost tightening, for the MILP engine; the
// two exact.Synthesize solves for the combinatorial engine; then Validate
// and the simulator replay of the point's design.
func probeCap(ctx context.Context, tr *tracer, trace, parent int, sp sos.Spec, costCap float64) error {
	g, pool, topo := sp.Graph, sp.Pool, sp.Topology
	if topo == nil {
		topo = sos.PointToPoint()
	}
	var d *schedule.Design
	if sp.Engine == sos.EngineMILP {
		var err error
		var infeasible bool
		d, infeasible, err = probeMILP(ctx, tr, trace, parent, g, pool, topo, sp, costCap)
		if err != nil || infeasible {
			return err
		}
	} else {
		var res *exact.Result
		err := tr.do(trace, parent, "exact.Synthesize", "exact", func() (err error) {
			res, err = exact.Synthesize(ctx, g, pool, topo, exact.Options{CostCap: costCap})
			return err
		})
		if err != nil || res.Status == sos.StatusInfeasible {
			return err
		}
		if res.Status != sos.StatusOptimal || res.Design == nil {
			return fmt.Errorf("status %v", res.Status)
		}
		d = res.Design
		err = tr.do(trace, parent, "exact.Synthesize", "exact", func() (err error) {
			res, err = exact.Synthesize(ctx, g, pool, topo, exact.Options{Objective: exact.MinCost, Deadline: d.Makespan + 1e-9})
			return err
		})
		if err != nil {
			return err
		}
		if res.Optimal && res.Design != nil {
			d = res.Design
		}
	}
	if err := tr.do(trace, parent, "schedule.Validate", "schedule", func() error { return d.Validate(nil) }); err != nil {
		return err
	}
	return tr.do(trace, parent, "sim.Replay", "sim", func() error {
		_, err := sim.Replay(d)
		return err
	})
}

// probeMILP is probeCap's MILP half. It reports infeasible for the cap
// that ends the sweep.
func probeMILP(ctx context.Context, tr *tracer, trace, parent int, g *taskgraph.Graph, pool *arch.Instances,
	topo sos.Topology, sp sos.Spec, costCap float64) (*schedule.Design, bool, error) {
	lpo := &lp.Options{Kernel: sp.LPKernel, Presolve: sp.LPPresolve}
	var warm *schedule.Design
	_ = tr.do(trace, parent, "heur.Synthesize", "heur", func() error {
		maxCounts := make([]int, pool.Library().NumTypes())
		for _, p := range pool.Procs() {
			maxCounts[p.Type]++
		}
		hd, err := heur.Synthesize(g, pool.Library(), topo, heur.SynthOptions{CostCap: costCap, MaxCounts: maxCounts})
		if err != nil {
			return err // no heuristic design within the cap: the MILP runs cold
		}
		if hd, err = schedule.RemapPool(hd, pool); err != nil {
			return err
		}
		warm, err = schedule.Canonicalize(hd)
		return err
	})
	var m *model.Model
	if err := tr.do(trace, parent, "model.Build", "model", func() (err error) {
		m, err = model.Build(g, pool, topo, model.Options{CostCap: costCap})
		return err
	}); err != nil {
		return nil, false, err
	}
	if err := tr.do(trace, parent, "lp.Solve", "lp", func() error {
		_, err := m.Prob.Solve(lpo)
		return err
	}); err != nil {
		return nil, false, err
	}
	mo := &milp.Options{RootCuts: sp.RootCuts, LP: lpo}
	if warm != nil {
		if v, err := m.IncumbentVector(warm); err == nil {
			mo.Incumbent = v
		}
	}
	var d *schedule.Design
	var sol *milp.Solution
	if err := tr.do(trace, parent, "milp.Solve", "milp", func() (err error) {
		d, sol, err = m.Solve(ctx, mo)
		return err
	}); err != nil {
		return nil, false, err
	}
	switch {
	case sol.Status == milp.Infeasible:
		return nil, true, nil
	case sol.Status != milp.Optimal || d == nil:
		return nil, false, fmt.Errorf("status %v", sol.Status)
	}
	var cm *model.Model
	if err := tr.do(trace, parent, "model.Build", "model", func() (err error) {
		cm, err = model.Build(g, pool, topo, model.Options{Objective: model.MinCost, Deadline: d.Makespan})
		return err
	}); err != nil {
		return nil, false, err
	}
	co := &milp.Options{RootCuts: sp.RootCuts, LP: lpo}
	if v, err := cm.IncumbentVector(d); err == nil {
		co.Incumbent = v
	}
	var cheap *schedule.Design
	var csol *milp.Solution
	if err := tr.do(trace, parent, "milp.Solve", "milp", func() (err error) {
		cheap, csol, err = cm.Solve(ctx, co)
		return err
	}); err != nil {
		return nil, false, err
	}
	if csol.Status == milp.Optimal && cheap != nil {
		d = cheap
	}
	return d, false, nil
}
