// Command sos synthesizes an application-specific heterogeneous
// multiprocessor system from a JSON problem specification, printing the
// selected processors, links, mapping, schedule, and a Gantt chart.
//
// Usage:
//
//	sos -spec problem.json [-topology p2p|bus|ring] [-objective makespan|cost]
//	    [-cost-cap N] [-deadline N] [-engine auto|milp|heuristic]
//	    [-lp-kernel auto|dense|sparse] [-lp-presolve] [-root-cuts]
//	    [-budget 1m] [-frontier] [-gantt] [-trace]
//	    [-json] [-solver-trace events.jsonl] [-pprof cpu.prof] [-debug-addr :6060]
//	sos -example 1|2 [...]        # run a built-in paper example
//	sos -write-spec problem.json  # emit a template spec and exit
//
// The spec file format:
//
//	{
//	  "graph": {
//	    "name": "example",
//	    "subtasks": [{"name": "S1"}, {"name": "S2", "mem": 4}],
//	    "arcs": [{"src": "S1", "dst": "S2", "volume": 1, "fr": 0.25, "fa": 0.5}]
//	  },
//	  "library": {
//	    "name": "boards", "link_cost": 1, "remote_delay": 1, "local_delay": 0,
//	    "types": [
//	      {"name": "p1", "cost": 4, "exec": [1, 1]},
//	      {"name": "p2", "cost": 2, "exec": [null, 3]}   // null = incapable
//	    ]
//	  },
//	  "pool": [2, 2]   // optional: instances per type
//	}
//
// Exit status: 0 on a proven result (or a heuristic design), 1 on any
// error, and 1 with partial output when the budget ran out before a
// proof — the best incumbent (or certified frontier prefix) is printed
// with its optimality gap before exiting.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"os/signal"
	"syscall"
	"time"

	"sos"
	"sos/internal/arch"
	"sos/internal/expts"
	"sos/internal/model"
	"sos/internal/schedule"
	"sos/internal/specfile"
	"sos/internal/taskgraph"
	"sos/internal/viz"
)

// errUsage marks command-line mistakes (exit 2, after printing usage).
var errUsage = errors.New("usage")

func main() {
	log.SetFlags(0)
	log.SetPrefix("sos: ")
	if err := run(); err != nil {
		if errors.Is(err, errUsage) {
			flag.Usage()
			os.Exit(2)
		}
		log.Print(err)
		os.Exit(1)
	}
}

// run is the single decision point: every failure path returns an error
// here instead of exiting from deep inside a subcommand, so partial
// results are always flushed before the process status is decided.
func run() error {
	var (
		specPath    = flag.String("spec", "", "JSON problem specification file")
		example     = flag.Int("example", 0, "run the paper's Example 1 or 2 instead of -spec")
		topoName    = flag.String("topology", "p2p", "interconnect style: p2p, bus, ring, or shmem")
		objective   = flag.String("objective", "makespan", "minimize: makespan (with -cost-cap) or cost (with -deadline)")
		costCap     = flag.Float64("cost-cap", 0, "total system cost bound (0 = uncapped)")
		deadline    = flag.Float64("deadline", 0, "completion-time bound for -objective cost")
		engine      = flag.String("engine", "auto", "solver: auto, milp, combinatorial, or heuristic")
		lpKernel    = flag.String("lp-kernel", "auto", "MILP relaxation simplex kernel: auto, dense, or sparse")
		lpPresolve  = flag.Bool("lp-presolve", false, "enable the LP presolve reduction pass on MILP relaxations")
		rootCuts    = flag.Bool("root-cuts", false, "generate knapsack cover cuts at the MILP root before branching")
		budgetFlag  = flag.Duration("budget", 5*time.Minute, "per-solve time budget (0 = unlimited)")
		totalBudget = flag.Duration("total-budget", 0, "one wall-clock budget for a whole -frontier sweep (0 = unlimited)")
		anytime     = flag.Bool("anytime", false, "degrade a starved or failed solve, or -frontier point, down the MILP→combinatorial→heuristic ladder instead of stopping")
		sweepWork   = flag.Int("sweep-workers", 1, "concurrent -frontier point solvers; >1 enables the speculative-parallel sweep (same frontier, overlapped solves)")
		raceFlag    = flag.Bool("race-engines", false, "race the engine portfolio concurrently on a shared incumbent bus; first proof wins, losers' incumbents tighten it while they run")
		frontier    = flag.Bool("frontier", false, "trace the whole non-inferior cost/performance set")
		gantt       = flag.Bool("gantt", true, "print the schedule as a Gantt chart")
		trace       = flag.Bool("trace", false, "print the simulated event trace")
		slack       = flag.Bool("slack", false, "print per-subtask slack and the critical path")
		metrics     = flag.Bool("metrics", false, "print utilization and I/O-buffer metrics")
		memory      = flag.Bool("memory", false, "enable the local-memory cost extension")
		noOverlap   = flag.Bool("no-overlap-io", false, "enable the no-I/O-module variant")
		writeSpec   = flag.String("write-spec", "", "write a template spec to the given path and exit")
		dumpLP      = flag.String("dump-lp", "", "write the MILP in CPLEX LP format to the given path")
		dumpEqns    = flag.String("dump-equations", "", "write the MILP as readable algebra to the given path")
		saveSVG     = flag.String("svg", "", "render the synthesized design as SVG to the given path")
		saveJSON    = flag.String("save-design", "", "save the synthesized design as JSON to the given path")
		jsonOut     = flag.Bool("json", false, "emit a machine-readable JSON run report to stdout instead of the human report")
		solverTrace = flag.String("solver-trace", "", "stream solver trace events (nodes, prunes, incumbents, LP resolves) as JSON lines to the given path ('-' = stderr)")
		pprofPath   = flag.String("pprof", "", "write a CPU profile of the solve to the given path")
		debugAddr   = flag.String("debug-addr", "", "serve expvar telemetry and net/http/pprof on this address during the run")
		cachePath   = flag.String("cache-persist", "", "JSONL proof-cache spill file: proofs from earlier runs are warm-loaded and reused, this run's proofs are appended")
	)
	flag.Parse()

	if *writeSpec != "" {
		if err := writeTemplate(*writeSpec); err != nil {
			return err
		}
		fmt.Printf("wrote template spec to %s\n", *writeSpec)
		return nil
	}

	var g *taskgraph.Graph
	var lib *arch.Library
	var pool *arch.Instances
	switch {
	case *example == 1:
		g, lib = expts.Example1()
		pool = expts.Example1Pool(lib)
	case *example == 2:
		g, lib = expts.Example2()
		pool = expts.Example2Pool(lib)
	case *specPath != "":
		sf, err := specfile.Load(*specPath)
		if err != nil {
			return err
		}
		g, lib = sf.Graph, sf.Library
		pool = sf.Instances()
	default:
		return errUsage
	}

	spec := sos.Spec{
		Graph:        g,
		Library:      lib,
		Pool:         pool,
		CostCap:      *costCap,
		Deadline:     *deadline,
		Budget:       *budgetFlag,
		SweepBudget:  *totalBudget,
		Anytime:      *anytime,
		SweepWorkers: *sweepWork,
		Race:         *raceFlag,
		LPPresolve:   *lpPresolve,
		RootCuts:     *rootCuts,
		Memory:       *memory,
		NoOverlapIO:  *noOverlap,
	}
	switch *lpKernel {
	case "auto":
		spec.LPKernel = sos.LPKernelAuto
	case "dense":
		spec.LPKernel = sos.LPKernelDense
	case "sparse":
		spec.LPKernel = sos.LPKernelSparse
	default:
		return fmt.Errorf("unknown lp-kernel %q (%w)", *lpKernel, errUsage)
	}
	var err error
	if spec.Topology, err = arch.ParseTopology(*topoName, 0); err != nil {
		return fmt.Errorf("unknown topology %q (%w)", *topoName, errUsage)
	}
	switch *objective {
	case "makespan":
		spec.Objective = sos.MinMakespan
	case "cost":
		spec.Objective = sos.MinCost
	default:
		return fmt.Errorf("unknown objective %q (%w)", *objective, errUsage)
	}
	if spec.Engine, err = sos.ParseEngine(*engine); err != nil {
		return fmt.Errorf("unknown engine %q (%w)", *engine, errUsage)
	}

	if *dumpLP != "" || *dumpEqns != "" {
		if err := dumpModel(spec, *dumpLP, *dumpEqns); err != nil {
			return err
		}
	}

	ob, err := setupObservability(*jsonOut, *solverTrace, *pprofPath, *debugAddr)
	if err != nil {
		return err
	}
	spec.Telemetry = ob.tel

	if *cachePath != "" {
		cache, cerr := sos.NewCache(sos.CacheOptions{PersistPath: *cachePath, Telemetry: ob.tel})
		if cerr != nil {
			return fmt.Errorf("cache: %w", cerr)
		}
		defer cache.Close()
		spec.Cache = cache
	}

	// SIGINT/SIGTERM cancel the solve context instead of killing the
	// process: every engine is anytime-aware, so an interrupted run still
	// prints (or JSON-reports) its best incumbent, the trace sink is
	// flushed whole, and the exit status reflects what was proven. A
	// second signal falls back to the default kill.
	ctx, stopSignals := signal.NotifyContext(context.Background(),
		os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	switch {
	case *jsonOut:
		err = runJSON(ctx, spec, *frontier)
	case *frontier:
		err = runFrontier(ctx, spec)
	default:
		err = runOnce(ctx, spec, runFlags{
			gantt: *gantt, trace: *trace, slack: *slack, metrics: *metrics,
			svgPath: *saveSVG, jsonPath: *saveJSON,
		})
	}
	if ctx.Err() != nil {
		log.Print("interrupted: reported the best result found before the signal")
	}
	if cerr := ob.close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

type runFlags struct {
	gantt, trace, slack, metrics bool
	svgPath, jsonPath            string
}

// dumpModel builds the MILP once just for inspection output.
func dumpModel(spec sos.Spec, lpPath, eqPath string) error {
	mo := model.Options{CostCap: spec.CostCap, Deadline: spec.Deadline,
		Memory: spec.Memory, NoOverlapIO: spec.NoOverlapIO}
	if spec.Objective == sos.MinCost {
		mo.Objective = model.MinCost
	}
	pool := spec.Pool
	if pool == nil {
		pool = arch.AutoPool(spec.Library, spec.Graph, 2)
	}
	m, err := model.Build(spec.Graph, pool, spec.Topology, mo)
	if err != nil {
		return err
	}
	write := func(path string, f func(io.Writer) error) error {
		if path == "" {
			return nil
		}
		fh, err := os.Create(path)
		if err != nil {
			return err
		}
		defer fh.Close()
		if err := f(fh); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%s)\n", path, m.Stats)
		return nil
	}
	if err := write(lpPath, m.WriteLP); err != nil {
		return err
	}
	return write(eqPath, m.WriteEquations)
}

func runOnce(ctx context.Context, spec sos.Spec, fl runFlags) error {
	start := time.Now()
	res, err := sos.Synthesize(ctx, spec)
	if err != nil {
		return err
	}
	elapsed := time.Since(start).Round(time.Millisecond)
	switch res.Status {
	case sos.StatusInfeasible:
		fmt.Printf("infeasible (no system satisfies the constraints) [%v]\n", elapsed)
		return nil
	case sos.StatusBudgetExhausted, sos.StatusCanceled:
		fmt.Printf("no design found within budget (%v) [%v]\n", res.Status, elapsed)
		return fmt.Errorf("synthesis %v before any incumbent: %w", res.Status, sos.ErrBudgetExhausted)
	}
	status := "optimal"
	degraded := false
	switch {
	case res.Optimal:
	case spec.Engine == sos.EngineHeuristic:
		status = "heuristic (optimality unknown)"
	case math.IsInf(res.Gap, 1):
		status = "best-found (no bound proven)"
		degraded = true
	default:
		status = fmt.Sprintf("best-found (optimality not proven, gap %.1f%%)", 100*res.Gap)
		degraded = true
	}
	fmt.Printf("%s in %v (%d nodes): %s\n", status, elapsed, res.Nodes, res.Design)
	if res.Raced {
		fmt.Printf("race: won by the %s engine\n", res.Rung)
	}
	if res.ModelStats != nil {
		fmt.Printf("model: %s\n", res.ModelStats)
	}
	d := res.Design
	fmt.Println("\nprocessors:")
	for _, p := range d.Procs {
		fmt.Printf("  %-6s (type %s, cost %g)\n", d.Pool.Proc(p).Name,
			d.Pool.Library().Type(d.Pool.Proc(p).Type).Name, d.Pool.Cost(p))
	}
	if len(d.Links) > 0 {
		fmt.Println("links:")
		for _, l := range d.Links {
			fmt.Printf("  %s\n", d.Topo.LinkName(d.Pool, l))
		}
	}
	fmt.Println("schedule:")
	for _, as := range d.Assignments {
		fmt.Printf("  %-6s on %-6s %6.3f .. %6.3f\n",
			d.Graph.Subtask(as.Task).Name, d.Pool.Proc(as.Proc).Name, as.Start, as.End)
	}
	for _, tr := range d.Transfers {
		kind := "local "
		where := ""
		if tr.Remote {
			kind = "remote"
			where = " via " + d.Topo.LinkName(d.Pool, tr.Links[0])
		}
		a := d.Graph.Arc(tr.Arc)
		fmt.Printf("  i%d,%d %s %6.3f .. %6.3f%s\n", int(a.Dst)+1, a.DstPort, kind, tr.Start, tr.End, where)
	}
	if spec.Memory {
		fmt.Println("memory:")
		for p, m := range d.MemSizes() {
			fmt.Printf("  %-6s %g units\n", d.Pool.Proc(p).Name, m)
		}
	}
	if fl.gantt {
		fmt.Println()
		fmt.Print(d.Gantt(64))
	}
	if fl.slack {
		rep, err := sos.Slack(d)
		if err != nil {
			return fmt.Errorf("slack analysis: %w", err)
		}
		fmt.Println()
		fmt.Print(rep.String())
	}
	if fl.metrics {
		fmt.Println()
		fmt.Print(sos.Measure(d).String())
	}
	if fl.trace {
		t, err := sos.Simulate(d)
		if err != nil {
			return fmt.Errorf("simulation: %w", err)
		}
		fmt.Println("\nsimulated event trace:")
		fmt.Print(t.String())
	}
	if fl.svgPath != "" {
		if err := os.WriteFile(fl.svgPath, []byte(viz.SVG(d, 960)), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", fl.svgPath)
	}
	if fl.jsonPath != "" {
		data, err := schedule.EncodeDesign(d)
		if err != nil {
			return err
		}
		if err := os.WriteFile(fl.jsonPath, data, 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", fl.jsonPath)
	}
	if degraded {
		// The incumbent above is real and validated, but the proof is not:
		// signal scripts with a typed nonzero exit.
		return fmt.Errorf("budget exhausted before optimality proof (gap %.3g): %w",
			res.Gap, sos.ErrBudgetExhausted)
	}
	return nil
}

func runFrontier(ctx context.Context, spec sos.Spec) error {
	start := time.Now()
	pts, sweepErr := sos.Frontier(ctx, spec)
	// Print whatever prefix was traced before deciding the exit status:
	// a budget-exhausted sweep still delivers its certified points.
	fmt.Printf("non-inferior designs (%v):\n", time.Since(start).Round(time.Millisecond))
	fmt.Printf("  %-8s %-12s %-26s %s\n", "cost", "performance", "quality", "system")
	for _, p := range pts {
		quality := "optimal"
		switch {
		case p.Status == sos.StatusFeasible && math.IsInf(p.Gap, 1):
			quality = "best-found (no bound)"
		case p.Status == sos.StatusFeasible:
			quality = fmt.Sprintf("best-found (gap %.1f%%)", 100*p.Gap)
		}
		fmt.Printf("  %-8g %-12g %-26s %s\n", p.Cost, p.Perf, quality, p.Design)
	}
	if sweepErr != nil {
		if errors.Is(sweepErr, sos.ErrBudgetExhausted) {
			fmt.Printf("(sweep stopped early after %d points: %v)\n", len(pts), sweepErr)
		}
		return sweepErr
	}
	return nil
}

// writeTemplate emits a starter spec based on the paper's Example 1.
func writeTemplate(path string) error {
	g, lib := expts.Example1()
	sf := &specfile.Spec{Graph: g, Library: lib, Pool: []int{2, 2, 2}}
	data, err := sf.Encode()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
