// Command sosbench regenerates every table and figure of the SOS paper's
// evaluation (Section 4) from this repository's implementation:
//
//	-table1, -table3   processor characteristics (input data, Tables I/III)
//	-fig1, -fig3       task data flow graphs (Figures 1/3)
//	-fig2              Example 1 Design 1 system + schedule (Figure 2)
//	-table2            Example 1 non-inferior set (Table II)
//	-table4            Example 2 point-to-point non-inferior set (Table IV)
//	-table5            Example 2 bus non-inferior set (Table V)
//	-exp1              §4.2.1 communication-scaling study
//	-exp2              §4.2.2 subtask-size-scaling study
//	-stats             MILP model sizes vs the paper's reported counts
//	-baseline          heuristic (ETF) synthesizer vs exact optima
//	-ring              §5 ring-interconnect frontier (extension)
//	-all               everything above
//	-perf all|names    the perf workload table (sweep, lp, cache, race, frontier,
//	                   scale), merged into BENCH_perf.json; with -check-baseline,
//	                   checked against it instead (DESIGN.md §16)
//
// By default frontiers are traced with the combinatorial engine (exact and
// fast). -engine milp uses the paper's MILP method for everything it can
// close within -budget; -milp-verify additionally runs a budgeted MILP at
// every frontier cap and reports its status against the exact optimum.
package main

import (
	"context"
	_ "expvar" // registers /debug/vars on the -debug-addr server
	"flag"
	"fmt"
	"log"
	"math"
	"math/rand"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the -debug-addr server
	"os"
	"runtime/pprof"
	"time"

	"sos"
	"sos/internal/arch"
	"sos/internal/exact"
	"sos/internal/expts"
	"sos/internal/heur"
	"sos/internal/milp"
	"sos/internal/model"
	"sos/internal/schedule"
	"sos/internal/taskgraph"
)

var (
	engineFlag   = flag.String("engine", "combinatorial", "frontier engine: combinatorial or milp")
	budgetFlag   = flag.Duration("budget", 5*time.Minute, "per-solve time budget")
	sweepWorkers = flag.Int("sweep-workers", 1, "concurrent frontier-point solvers; >1 enables the speculative-parallel sweep (DESIGN.md §10)")
	milpVerify   = flag.Bool("milp-verify", false, "cross-check each frontier point with a budgeted MILP solve")
	pprofPath    = flag.String("pprof", "", "write a CPU profile of the run to the given path")
	debugAddr    = flag.String("debug-addr", "", "serve expvar and net/http/pprof on this address during the run")
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sosbench: ")
	var (
		all     = flag.Bool("all", false, "run every experiment")
		table1  = flag.Bool("table1", false, "")
		table2  = flag.Bool("table2", false, "")
		table3  = flag.Bool("table3", false, "")
		table4  = flag.Bool("table4", false, "")
		table5  = flag.Bool("table5", false, "")
		fig1    = flag.Bool("fig1", false, "")
		fig2    = flag.Bool("fig2", false, "")
		fig3    = flag.Bool("fig3", false, "")
		exp1    = flag.Bool("exp1", false, "")
		exp2    = flag.Bool("exp2", false, "")
		stats   = flag.Bool("stats", false, "")
		basel   = flag.Bool("baseline", false, "")
		ring    = flag.Bool("ring", false, "")
		scaling = flag.Bool("scaling", false, "beyond-paper: engine runtime vs problem size")
		perf    = flag.String("perf", "", "run the perf workload table: all, or a comma-separated list of sweep, lp, cache, race, frontier, scale; merges the rows into BENCH_perf.json")
		check   = flag.Bool("check-baseline", false, "with -perf: check every row's bars against the committed BENCH_perf.json instead of writing it; exit nonzero on any failure")
	)
	flag.Parse()

	if *pprofPath != "" {
		f, err := os.Create(*pprofPath)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *debugAddr != "" {
		go func() {
			// Best-effort expvar + pprof endpoint; experiments don't block on it.
			_ = http.ListenAndServe(*debugAddr, nil)
		}()
	}

	// Every experiment returns its error here — the only exit point — so a
	// failing run still flushes whatever tables preceded it.
	ran := false
	run := func(on bool, f func() error) {
		if on || *all {
			if err := f(); err != nil {
				log.Print(err)
				os.Exit(1)
			}
			ran = true
		}
	}
	run(*fig1, Fig1)
	run(*table1, Table1)
	run(*fig2, Fig2)
	run(*table2, Table2)
	run(*exp1, Exp1)
	run(*exp2, Exp2)
	run(*fig3, Fig3)
	run(*table3, Table3)
	run(*table4, Table4)
	run(*table5, Table5)
	run(*stats, Stats)
	run(*basel, Baseline)
	run(*ring, RingStudy)
	run(*scaling, ScalingStudy)
	run(*perf != "", func() error { return Perf(*perf, *check) })
	if !ran {
		flag.Usage()
		os.Exit(2)
	}
}

// printGraph renders a task graph as an arc table.
func printGraph(g *taskgraph.Graph) {
	fmt.Printf("task graph %q: %d subtasks, %d arcs\n", g.Name, g.NumSubtasks(), g.NumArcs())
	fmt.Printf("  %-6s %-6s %-8s %-6s %-6s %s\n", "src", "dst", "volume", "f_R", "f_A", "label")
	for _, a := range g.Arcs() {
		fmt.Printf("  %-6s %-6s %-8g %-6g %-6g i%d,%d\n",
			g.Subtask(a.Src).Name, g.Subtask(a.Dst).Name, a.Volume, a.FR, a.FA,
			int(a.Dst)+1, a.DstPort)
	}
	fmt.Println()
}

// printLibrary renders a processor-characteristics table (Tables I/III).
func printLibrary(lib *arch.Library, g *taskgraph.Graph) {
	fmt.Printf("| Proc | Cost |")
	for _, s := range g.Subtasks() {
		fmt.Printf(" %s |", s.Name)
	}
	fmt.Println()
	fmt.Printf("|------|------|")
	for range g.Subtasks() {
		fmt.Printf("----|")
	}
	fmt.Println()
	for _, t := range lib.Types() {
		fmt.Printf("| %-4s | %4g |", t.Name, t.Cost)
		for _, s := range g.Subtasks() {
			if lib.CanRun(t.ID, s.ID) {
				fmt.Printf(" %g |", lib.Exec(t.ID, s.ID))
			} else {
				fmt.Printf(" - |")
			}
		}
		fmt.Println()
	}
	fmt.Printf("C_L=%g  D_CR=%g  D_CL=%g\n\n", lib.LinkCost, lib.RemoteDelay, lib.LocalDelay)
}

// Fig1 prints the Example 1 task graph.
func Fig1() error {
	fmt.Println("== Figure 1: Example 1 task graph ==")
	g, _ := expts.Example1()
	printGraph(g)
	return nil
}

// Table1 prints the Example 1 processor characteristics.
func Table1() error {
	fmt.Println("== Table I: Example 1 processor characteristics ==")
	g, lib := expts.Example1()
	printLibrary(lib, g)
	return nil
}

// Fig3 prints the Example 2 task graph.
func Fig3() error {
	fmt.Println("== Figure 3: Example 2 task graph (reconstructed; see internal/expts) ==")
	g, _ := expts.Example2()
	printGraph(g)
	return nil
}

// Table3 prints the Example 2 processor characteristics.
func Table3() error {
	fmt.Println("== Table III: Example 2 processor characteristics ==")
	g, lib := expts.Example2()
	printLibrary(lib, g)
	return nil
}

// Fig2 synthesizes Example 1 at cost cap 14 and prints the system and
// schedule of the paper's Figure 2.
func Fig2() error {
	fmt.Println("== Figure 2: Example 1 Design 1 (cost cap 14) ==")
	g, lib := expts.Example1()
	pool := expts.Example1Pool(lib)
	res, err := exact.Synthesize(context.Background(), g, pool, arch.PointToPoint{},
		exact.Options{Objective: exact.MinMakespan, CostCap: 14, TimeLimit: *budgetFlag})
	if err != nil {
		return fmt.Errorf("fig2: %w", err)
	}
	if res.Design == nil {
		return fmt.Errorf("fig2: no design within budget (%v)", res.Status)
	}
	d := res.Design
	fmt.Printf("system: %s\n", d)
	for _, l := range d.Links {
		fmt.Printf("  link %s\n", d.Topo.LinkName(d.Pool, l))
	}
	fmt.Println()
	fmt.Print(d.Gantt(64))
	fmt.Println()
	return nil
}

// frontierTable runs a sweep and prints paper-vs-measured rows. A sweep
// that stops early (budget exhausted) still prints its certified prefix
// before the error propagates to the exit point.
func frontierTable(title string, g *taskgraph.Graph, pool *arch.Instances, topo arch.Topology, paper []expts.ParetoPoint) error {
	fmt.Printf("== %s ==\n", title)
	engine := sos.EngineCombinatorial
	if *engineFlag == "milp" {
		engine = sos.EngineMILP
	}
	start := time.Now()
	pts, sweepErr := sos.Frontier(context.Background(), sos.Spec{Graph: g, Library: pool.Library(), Pool: pool,
		Topology: topo, Engine: engine, Budget: *budgetFlag, SweepWorkers: *sweepWorkers})
	if sweepErr != nil {
		fmt.Printf("(sweep stopped early: %v)\n", sweepErr)
	}
	elapsed := time.Since(start)

	fmt.Printf("| Design | Cost | Performance | Paper (cost, perf) | Match |\n")
	fmt.Printf("|--------|------|-------------|--------------------|-------|\n")
	// Points come ordered best-performance-first (descending cost).
	for i, p := range pts {
		paperCell, match := "- (not reported)", "extra"
		if i < len(paper) {
			paperCell = fmt.Sprintf("(%g, %g)", paper[i].Cost, paper[i].Perf)
			if math.Abs(p.Cost-paper[i].Cost) < 1e-6 && math.Abs(p.Perf-paper[i].Perf) < 1e-6 {
				match = "yes"
			} else {
				match = "NO"
			}
		}
		fmt.Printf("| %d | %g | %g | %s | %s |\n", i+1, p.Cost, p.Perf, paperCell, match)
	}
	workersNote := ""
	if *sweepWorkers > 1 {
		workersNote = fmt.Sprintf(", %d sweep workers", *sweepWorkers)
	}
	fmt.Printf("sweep: %d points in %v (%s engine%s)\n", len(pts), elapsed.Round(time.Millisecond), *engineFlag, workersNote)

	if *milpVerify {
		if err := milpVerifyFrontier(g, pool, topo, pts); err != nil {
			return err
		}
	}
	fmt.Println()
	return sweepErr
}

// milpVerifyFrontier re-solves each frontier cap with the paper's MILP
// under the time budget, warm-started with the exact design, and reports
// agreement.
func milpVerifyFrontier(g *taskgraph.Graph, pool *arch.Instances, topo arch.Topology, pts []sos.FrontierPoint) error {
	fmt.Println("MILP verification (budgeted, warm-started):")
	for _, p := range pts {
		m, err := model.Build(g, pool, topo, model.Options{Objective: model.MinMakespan, CostCap: p.Cost})
		if err != nil {
			return err
		}
		var inc []float64
		if canon, err := schedule.Canonicalize(p.Design); err == nil {
			if v, err := m.IncumbentVector(canon); err == nil {
				inc = v
			}
		}
		start := time.Now()
		design, sol, err := m.Solve(context.Background(), &milp.Options{TimeLimit: *budgetFlag, Incumbent: inc})
		if err != nil {
			return err
		}
		verdict := "?"
		switch {
		case sol.Status == milp.Optimal && design != nil && math.Abs(design.Makespan-p.Perf) < 1e-6:
			verdict = "proved optimal, agrees"
		case sol.Status == milp.Optimal:
			verdict = fmt.Sprintf("DISAGREES: milp %g vs exact %g", design.Makespan, p.Perf)
		case design != nil:
			verdict = fmt.Sprintf("budget hit; best %g (exact %g), bound gap %.1f%%", design.Makespan, p.Perf, 100*sol.Gap)
		default:
			verdict = "budget hit, no solution"
		}
		fmt.Printf("  cap %4g: %-10s %6d nodes %8v  %s\n",
			p.Cost, sol.Status, sol.Nodes, time.Since(start).Round(time.Millisecond), verdict)
	}
	return nil
}

// Table2 traces the Example 1 frontier.
func Table2() error {
	g, lib := expts.Example1()
	return frontierTable("Table II: Example 1 non-inferior systems (point-to-point)",
		g, expts.Example1Pool(lib), arch.PointToPoint{}, expts.Table2Full)
}

// Table4 traces the Example 2 point-to-point frontier.
func Table4() error {
	g, lib := expts.Example2()
	return frontierTable("Table IV: Example 2 non-inferior systems (point-to-point)",
		g, expts.Example2Pool(lib), arch.PointToPoint{}, expts.Table4)
}

// Table5 traces the Example 2 bus frontier.
func Table5() error {
	g, lib := expts.Example2()
	return frontierTable("Table V: Example 2 non-inferior systems (bus)",
		g, expts.Example2Pool(lib), arch.Bus{}, expts.Table5)
}

// Exp1 reruns the §4.2.1 communication-scaling study.
func Exp1() error {
	fmt.Println("== §4.2.1 Experiment 1: increasing communication time ==")
	fmt.Println("(traditional dataflow semantics; see internal/expts.Example1Strict)")
	g, lib := expts.Example1Strict()
	pool := expts.Example1Pool(lib)
	for _, k := range []float64{1, 2, 6} {
		pts, err := sweepExact(g.ScaleVolumes(k), pool, arch.PointToPoint{})
		if err != nil {
			return err
		}
		fmt.Printf("volume ×%g: %d non-inferior designs in the paper's cost range:", k, len(pts))
		for _, p := range pts {
			fmt.Printf(" (%g,%g;%dproc)", p.Cost, p.Perf, len(p.Design.Procs))
		}
		fmt.Println()
	}
	fmt.Println("paper: ×2 leaves {2-processor, uniprocessor}; ×6 leaves {uniprocessor}")
	fmt.Println()
	return nil
}

// Exp2 reruns the §4.2.2 subtask-size-scaling study.
func Exp2() error {
	fmt.Println("== §4.2.2 Experiment 2: increasing execution time ==")
	g, lib := expts.Example1()
	for _, k := range []float64{1, 2, 3} {
		pts, err := sweepExact(g, expts.Example1Pool(lib.ScaleExec(k)), arch.PointToPoint{})
		if err != nil {
			return err
		}
		fmt.Printf("size ×%g: %d non-inferior designs in the paper's cost range:", k, len(pts))
		for _, p := range pts {
			fmt.Printf(" (%g,%g;%v)", p.Cost, p.Perf, p.Design.NumProcsByType())
		}
		fmt.Println()
	}
	fmt.Println("paper: ×2 has 5 designs (new: p1×2+p3); ×3 has 7 (new: 4-processor and p1+p2)")
	fmt.Println()
	return nil
}

// sweepExact runs a combinatorial sweep filtered to the paper's cost
// range (>= 5).
func sweepExact(g *taskgraph.Graph, pool *arch.Instances, topo arch.Topology) ([]sos.FrontierPoint, error) {
	pts, err := sos.Frontier(context.Background(), sos.Spec{Graph: g, Library: pool.Library(), Pool: pool,
		Topology: topo, Engine: sos.EngineCombinatorial, Budget: *budgetFlag})
	if err != nil {
		return nil, err
	}
	var out []sos.FrontierPoint
	for _, p := range pts {
		if p.Cost >= 5-1e-9 {
			out = append(out, p)
		}
	}
	return out, nil
}

// Stats prints MILP model sizes next to the paper's reported counts.
func Stats() error {
	fmt.Println("== MILP model sizes (ours vs paper §4.1/§4.3) ==")
	type row struct {
		name  string
		g     *taskgraph.Graph
		pool  *arch.Instances
		topo  arch.Topology
		paper string
	}
	g1, lib1 := expts.Example1()
	g2, lib2 := expts.Example2()
	rows := []row{
		{"Example 1 p2p", g1, expts.Example1Pool(lib1), arch.PointToPoint{}, "21 timing, 72 binary, 174 constraints"},
		{"Example 2 p2p", g2, expts.Example2Pool(lib2), arch.PointToPoint{}, "47 timing, 225 binary, 1081 constraints"},
		{"Example 2 bus", g2, expts.Example2Pool(lib2), arch.Bus{}, "47 timing, 153 binary, 416 constraints"},
	}
	for _, r := range rows {
		m, err := model.Build(r.g, r.pool, r.topo, model.Options{Objective: model.MinMakespan, CostCap: 100})
		if err != nil {
			return err
		}
		fmt.Printf("%-14s ours: %s\n", r.name, m.Stats)
		fmt.Printf("%-14s paper: %s\n", "", r.paper)
	}
	fmt.Println("(counting conventions differ: we keep T_OA explicit, add the δ exactness cut,")
	fmt.Println(" β upper bounds and symmetry rows, and our instance pools are 2 per type)")
	fmt.Println()
	return nil
}

// Baseline compares the heuristic synthesizers — greedy+ETF enumeration
// and simulated annealing — against the exact optimum at each paper cap.
func Baseline() error {
	fmt.Println("== Heuristic synthesizers vs exact optimum ==")
	run := func(name string, g *taskgraph.Graph, lib *arch.Library, pool *arch.Instances, topo arch.Topology, caps []expts.ParetoPoint) error {
		fmt.Printf("%s:\n", name)
		maxCounts := make([]int, lib.NumTypes())
		for _, p := range pool.Procs() {
			maxCounts[p.Type]++
		}
		for _, pt := range caps {
			hPerf := math.Inf(1)
			if hd, err := heur.Synthesize(g, lib, topo, heur.SynthOptions{CostCap: pt.Cost, MaxCounts: maxCounts}); err == nil {
				hPerf = hd.Makespan
			}
			aPerf := math.Inf(1)
			if ad, err := heur.Anneal(context.Background(), g, pool, topo,
				heur.AnnealOptions{CostCap: pt.Cost, Iterations: 4000, Seed: 7}); err == nil {
				aPerf = ad.Makespan
			}
			res, err := exact.Synthesize(context.Background(), g, pool, topo,
				exact.Options{Objective: exact.MinMakespan, CostCap: pt.Cost, TimeLimit: *budgetFlag})
			if err != nil {
				return fmt.Errorf("baseline: %w", err)
			}
			if res.Design == nil {
				return fmt.Errorf("baseline: no design within budget at cap %g (%v)", pt.Cost, res.Status)
			}
			fmt.Printf("  cap %4g: greedy/ETF %6g  anneal %6g  optimal %6g  (greedy overhead %+.0f%%)\n",
				pt.Cost, hPerf, aPerf, res.Design.Makespan,
				100*(hPerf-res.Design.Makespan)/res.Design.Makespan)
		}
		return nil
	}
	g1, lib1 := expts.Example1()
	if err := run("Example 1 (p2p)", g1, lib1, expts.Example1Pool(lib1), arch.PointToPoint{}, expts.Table2); err != nil {
		return err
	}
	g2, lib2 := expts.Example2()
	if err := run("Example 2 (p2p)", g2, lib2, expts.Example2Pool(lib2), arch.PointToPoint{}, expts.Table4); err != nil {
		return err
	}
	fmt.Println()
	return nil
}

// RingStudy traces the §5 ring-extension frontier on both examples.
func RingStudy() error {
	fmt.Println("== §5 extension: ring interconnect frontier ==")
	g1, lib1 := expts.Example1()
	pts, err := ringSweep(g1, expts.Example1Pool(lib1))
	if err != nil {
		return err
	}
	fmt.Printf("Example 1 ring frontier:")
	for _, p := range pts {
		fmt.Printf(" (%g,%g)", p.Cost, p.Perf)
	}
	fmt.Println()
	g2, lib2 := expts.Example2()
	pts, err = ringSweep(g2, expts.Example2Pool(lib2))
	if err != nil {
		return err
	}
	fmt.Printf("Example 2 ring frontier:")
	for _, p := range pts {
		fmt.Printf(" (%g,%g)", p.Cost, p.Perf)
	}
	fmt.Println()
	fmt.Println("(ring delays are hop-count multiples of D_CR; segments cost C_L each)")
	fmt.Println()
	return nil
}

// ScalingStudy is a beyond-paper experiment: how synthesis time grows with
// problem size for the combinatorial engine and the heuristic, on random
// graphs with random 3-type libraries. The paper could only speculate
// about scaling; this measures it.
func ScalingStudy() error {
	fmt.Println("== Beyond-paper: synthesis time vs problem size (uncapped min-makespan) ==")
	fmt.Printf("%-10s %-8s %-14s %-14s\n", "subtasks", "arcs", "exact-serial", "heuristic")
	rng := rand.New(rand.NewSource(12345))
	for _, n := range []int{4, 6, 8, 10, 12, 14} {
		g := taskgraph.Random(rng, taskgraph.RandomSpec{Subtasks: n, ArcProb: 0.3, MaxVol: 3})
		if err := g.Freeze(); err != nil {
			return err
		}
		lib := arch.RandomLibrary(rng, g, 3)
		pool := arch.AutoPool(lib, g, 2)

		t0 := time.Now()
		res, err := exact.Synthesize(context.Background(), g, pool, arch.PointToPoint{},
			exact.Options{Objective: exact.MinMakespan, TimeLimit: *budgetFlag})
		if err != nil {
			return err
		}
		serial := time.Since(t0)

		t0 = time.Now()
		if _, err := heur.Synthesize(g, lib, arch.PointToPoint{}, heur.SynthOptions{MaxPerType: 2}); err != nil {
			return err
		}
		heurT := time.Since(t0)

		status := ""
		if !res.Optimal {
			status = " (budget hit)"
		}
		fmt.Printf("%-10d %-8d %-14v %-14v%s\n", n, g.NumArcs(),
			serial.Round(time.Millisecond), heurT.Round(time.Microsecond), status)
	}
	fmt.Println()
	return nil
}

func ringSweep(g *taskgraph.Graph, pool *arch.Instances) ([]sos.FrontierPoint, error) {
	return sos.Frontier(context.Background(), sos.Spec{Graph: g, Library: pool.Library(), Pool: pool,
		Topology: sos.Ring(), Engine: sos.EngineCombinatorial, Budget: *budgetFlag})
}
