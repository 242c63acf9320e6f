package sos

// Benchmarks regenerating every table and figure of the paper's
// evaluation, plus ablations of the solver design choices called out in
// DESIGN.md. Run with:
//
//	go test -bench=. -benchmem
//
// The Benchmark*/paper-table benchmarks assert the reproduced values on
// every iteration, so `-bench` doubles as an end-to-end reproduction run.

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"

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

func requireFrontier(b *testing.B, pts []FrontierPoint, want []expts.ParetoPoint) {
	b.Helper()
	if len(pts) < len(want) {
		b.Fatalf("frontier has %d points, want at least %d", len(pts), len(want))
	}
	for i, w := range want {
		if math.Abs(pts[i].Cost-w.Cost) > 1e-6 || math.Abs(pts[i].Perf-w.Perf) > 1e-6 {
			b.Fatalf("point %d: (%g,%g), paper (%g,%g)", i, pts[i].Cost, pts[i].Perf, w.Cost, w.Perf)
		}
	}
}

func exactSweep(b *testing.B, g *Graph, pool *Pool, topo Topology) []FrontierPoint {
	b.Helper()
	pts, err := Frontier(context.Background(), Spec{Graph: g, Library: pool.Library(), Pool: pool,
		Topology: topo, Engine: EngineCombinatorial, Budget: 10 * time.Minute})
	if err != nil {
		b.Fatal(err)
	}
	return pts
}

// milpSweep traces Example 1's point-to-point frontier with the MILP
// engine, as Frontier sweeps it for EngineMILP, from startCap (0: the
// whole frontier), and asserts the paper's points.
func milpSweep(b *testing.B, startCap float64, want []expts.ParetoPoint) {
	g, lib := expts.Example1()
	pool := expts.Example1Pool(lib)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pts, err := Frontier(context.Background(), Spec{Graph: g, Library: lib, Pool: pool, Engine: EngineMILP,
			Budget: 10 * time.Minute, CostCap: startCap})
		if err != nil {
			b.Fatal(err)
		}
		requireFrontier(b, pts, want)
	}
}

// BenchmarkTable2MILP regenerates Table II with the paper's own MILP
// method (Figure 1 graph, Table I processors, point-to-point): the whole
// frontier, swept one chain point at a time.
func BenchmarkTable2MILP(b *testing.B) { milpSweep(b, 0, expts.Table2) }

// BenchmarkTable2MILPFromCap14 is the Table II MILP sweep from cap 14,
// the sweep the perf table's sweep/workers-1 row times: the four points
// of Table II plus the uniprocessor point, asserted on every iteration.
func BenchmarkTable2MILPFromCap14(b *testing.B) { milpSweep(b, 14, expts.Table2Full) }

// BenchmarkSweepModelReuse measures the incremental model path every
// MILP sweep uses: one template Build, then a SetCostCap clone and a
// root-LP solve per Table II cap.
func BenchmarkSweepModelReuse(b *testing.B) {
	g, lib := expts.Example1()
	pool := expts.Example1Pool(lib)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tpl, err := model.Build(g, pool, arch.PointToPoint{}, model.Options{Objective: model.MinMakespan, CostCap: 1})
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range []float64{14, 13, 7, 5, 4} {
			m, err := tpl.SetCostCap(c)
			if err != nil {
				b.Fatal(err)
			}
			sol, err := m.Prob.Solve(nil)
			if err != nil || sol.Status != lp.Optimal {
				b.Fatalf("cap %g root LP: %v %v", c, err, sol.Status)
			}
		}
	}
}

// BenchmarkSweepModelRebuild is the pre-optimization counterpart of
// BenchmarkSweepModelReuse: a from-scratch Build at every cap.
func BenchmarkSweepModelRebuild(b *testing.B) {
	g, lib := expts.Example1()
	pool := expts.Example1Pool(lib)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, c := range []float64{14, 13, 7, 5, 4} {
			m, err := model.Build(g, pool, arch.PointToPoint{}, model.Options{Objective: model.MinMakespan, CostCap: c})
			if err != nil {
				b.Fatal(err)
			}
			sol, err := m.Prob.Solve(nil)
			if err != nil || sol.Status != lp.Optimal {
				b.Fatalf("cap %g root LP: %v %v", c, err, sol.Status)
			}
		}
	}
}

// BenchmarkNodeThroughput measures raw branch-and-bound node throughput on
// the hardest Example 1 sweep point (cost cap 14, no heuristic incumbent),
// reporting nodes explored per second and per solve alongside ns/op.
func BenchmarkNodeThroughput(b *testing.B) {
	g, lib := expts.Example1()
	pool := expts.Example1Pool(lib)
	m, err := model.Build(g, pool, arch.PointToPoint{}, model.Options{Objective: model.MinMakespan, CostCap: 14})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	totalNodes := 0
	for i := 0; i < b.N; i++ {
		design, sol, err := m.Solve(context.Background(), &milp.Options{})
		if err != nil || sol.Status != milp.Optimal || math.Abs(design.Makespan-2.5) > 1e-6 {
			b.Fatalf("err=%v status=%v", err, sol.Status)
		}
		totalNodes += sol.Nodes
	}
	b.StopTimer()
	b.ReportMetric(float64(totalNodes)/float64(b.N), "nodes/op")
	b.ReportMetric(float64(totalNodes)/b.Elapsed().Seconds(), "nodes/s")
}

// BenchmarkWarmResolve measures one warm-started node re-solve: a single
// binary is fixed to 0 and released again on alternating solves — the
// dive/backtrack transition branch and bound makes — served by
// lp.Resolver's retained basis.
func BenchmarkWarmResolve(b *testing.B) {
	m, branch := resolveFixture(b)
	r, err := m.Prob.NewResolver(nil)
	if err != nil {
		b.Fatal(err)
	}
	if sol := r.Solve(nil); sol.Status != lp.Optimal {
		b.Fatalf("base solve: %v", sol.Status)
	}
	fix0 := map[lp.ColID][2]float64{branch: {0, 0}}
	free := map[lp.ColID][2]float64{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bounds := fix0
		if i%2 == 1 {
			bounds = free
		}
		if sol := r.Solve(bounds); sol.Status != lp.Optimal {
			b.Fatalf("re-solve %d: %v", i, sol.Status)
		}
	}
	b.StopTimer()
	st := r.Stats()
	if st.Warm == 0 {
		b.Fatalf("warm path never taken: %+v", st)
	}
	b.ReportMetric(float64(st.Warm)/float64(st.Warm+st.Cold), "warm-frac")
}

// BenchmarkColdResolve is the cold counterpart of BenchmarkWarmResolve:
// the identical bound transitions served by from-scratch two-phase solves
// (what every node paid before the resolver existed). Each side of the
// transition is a copy of the model that carries its bounds, made before
// the timer starts, so the loop times only the solves.
func BenchmarkColdResolve(b *testing.B) {
	m, branch := resolveFixture(b)
	fix0 := m.Prob.Clone()
	fix0.SetBounds(branch, 0, 0)
	free := m.Prob
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := fix0
		if i%2 == 1 {
			p = free
		}
		sol, err := p.Solve(nil)
		if err != nil || sol.Status != lp.Optimal {
			b.Fatalf("solve %d: %v %v", i, err, sol.Status)
		}
	}
}

// BenchmarkResolverCold measures one cold node re-solve served by
// lp.Resolver: two bound sets two columns apart (a second branch column
// fixed with the fixture's, then both released) alternate, which is past
// the warm path's one-column gate, so every solve rebuilds the tableau —
// into the workspace the solve before left.
func BenchmarkResolverCold(b *testing.B) {
	m, branch := resolveFixture(b)
	second := m.BranchCols()[0]
	if second == branch {
		second = m.BranchCols()[1]
	}
	r, err := m.Prob.NewResolver(nil)
	if err != nil {
		b.Fatal(err)
	}
	fix2 := map[lp.ColID][2]float64{branch: {0, 0}, second: {0, 0}}
	free := map[lp.ColID][2]float64{}
	// One solve of each set first grows the workspace to its size.
	for _, bounds := range []map[lp.ColID][2]float64{fix2, free} {
		if sol := r.Solve(bounds); sol.Status != lp.Optimal {
			b.Fatalf("warm-up solve: %v", sol.Status)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bounds := fix2
		if i%2 == 1 {
			bounds = free
		}
		if sol := r.Solve(bounds); sol.Status != lp.Optimal {
			b.Fatalf("re-solve %d: %v", i, sol.Status)
		}
	}
	b.StopTimer()
	if st := r.Stats(); st.Warm != 0 {
		b.Fatalf("a re-solve took the warm path: %+v", st)
	}
}

// resolveFixture builds the Example 1 cap-14 relaxation and picks a branch
// column that is fractional at the root, so the warm/cold resolve pair
// measures a realistic dive transition.
func resolveFixture(b *testing.B) (*model.Model, lp.ColID) {
	b.Helper()
	g, lib := expts.Example1()
	pool := expts.Example1Pool(lib)
	m, err := model.Build(g, pool, arch.PointToPoint{}, model.Options{Objective: model.MinMakespan, CostCap: 14})
	if err != nil {
		b.Fatal(err)
	}
	root, err := m.Prob.Solve(nil)
	if err != nil || root.Status != lp.Optimal {
		b.Fatalf("root: %v %v", err, root.Status)
	}
	for _, c := range m.BranchCols() {
		if f := math.Abs(root.X[c] - math.Round(root.X[c])); f > 1e-6 {
			return m, c
		}
	}
	return m, m.BranchCols()[0]
}

// BenchmarkTable2Exact regenerates Table II with the combinatorial engine.
func BenchmarkTable2Exact(b *testing.B) {
	g, lib := expts.Example1()
	pool := expts.Example1Pool(lib)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		requireFrontier(b, exactSweep(b, g, pool, arch.PointToPoint{}), expts.Table2)
	}
}

// BenchmarkTable4 regenerates the Example 2 point-to-point frontier
// (Table IV; the paper's runtimes for these five designs were 62 to 6417
// minutes on a 1991 Solbourne).
func BenchmarkTable4(b *testing.B) {
	g, lib := expts.Example2()
	pool := expts.Example2Pool(lib)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		requireFrontier(b, exactSweep(b, g, pool, arch.PointToPoint{}), expts.Table4)
	}
}

// BenchmarkTable5 regenerates the Example 2 bus frontier (Table V).
func BenchmarkTable5(b *testing.B) {
	g, lib := expts.Example2()
	pool := expts.Example2Pool(lib)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		requireFrontier(b, exactSweep(b, g, pool, arch.Bus{}), expts.Table5)
	}
}

// BenchmarkFig2 synthesizes the paper's Figure 2 design (Example 1, cost
// cap 14 -> makespan 2.5) with the MILP engine.
func BenchmarkFig2(b *testing.B) {
	g, lib := expts.Example1()
	pool := expts.Example1Pool(lib)
	for i := 0; i < b.N; i++ {
		m, err := model.Build(g, pool, arch.PointToPoint{}, model.Options{Objective: model.MinMakespan, CostCap: 14})
		if err != nil {
			b.Fatal(err)
		}
		design, sol, err := m.Solve(context.Background(), nil)
		if err != nil || sol.Status != milp.Optimal {
			b.Fatalf("err=%v status=%v", err, sol.Status)
		}
		if math.Abs(design.Makespan-2.5) > 1e-6 {
			b.Fatalf("makespan %g", design.Makespan)
		}
	}
}

// BenchmarkExp1 reruns the §4.2.1 communication-scaling study
// (traditional semantics; volume ×2 and ×6 frontiers).
func BenchmarkExp1(b *testing.B) {
	g, lib := expts.Example1Strict()
	pool := expts.Example1Pool(lib)
	for i := 0; i < b.N; i++ {
		x2 := paperRange(exactSweep(b, g.ScaleVolumes(2), pool, arch.PointToPoint{}))
		if len(x2) != expts.Exp1VolX2Designs {
			b.Fatalf("×2 frontier %d, want %d", len(x2), expts.Exp1VolX2Designs)
		}
		x6 := paperRange(exactSweep(b, g.ScaleVolumes(6), pool, arch.PointToPoint{}))
		if len(x6) != expts.Exp1VolX6Designs {
			b.Fatalf("×6 frontier %d, want %d", len(x6), expts.Exp1VolX6Designs)
		}
	}
}

// BenchmarkExp2 reruns the §4.2.2 subtask-size-scaling study (size ×2 and
// ×3 frontiers).
func BenchmarkExp2(b *testing.B) {
	g, lib := expts.Example1()
	for i := 0; i < b.N; i++ {
		x2 := paperRange(exactSweep(b, g, expts.Example1Pool(lib.ScaleExec(2)), arch.PointToPoint{}))
		if len(x2) != expts.Exp2SizeX2Designs {
			b.Fatalf("×2 frontier %d, want %d", len(x2), expts.Exp2SizeX2Designs)
		}
		x3 := paperRange(exactSweep(b, g, expts.Example1Pool(lib.ScaleExec(3)), arch.PointToPoint{}))
		if len(x3) != expts.Exp2SizeX3Designs {
			b.Fatalf("×3 frontier %d, want %d", len(x3), expts.Exp2SizeX3Designs)
		}
	}
}

func paperRange(pts []FrontierPoint) []FrontierPoint {
	var out []FrontierPoint
	for _, p := range pts {
		if p.Cost >= 5-1e-9 {
			out = append(out, p)
		}
	}
	return out
}

// BenchmarkRingFrontier traces the §5 ring-extension frontier on
// Example 2 (no paper numbers exist; the bench tracks our own).
func BenchmarkRingFrontier(b *testing.B) {
	g, lib := expts.Example2()
	pool := expts.Example2Pool(lib)
	for i := 0; i < b.N; i++ {
		pts := exactSweep(b, g, pool, arch.Ring{})
		if len(pts) == 0 {
			b.Fatal("empty ring frontier")
		}
	}
}

// BenchmarkModelBuild measures MILP construction alone (Example 2 p2p).
func BenchmarkModelBuild(b *testing.B) {
	g, lib := expts.Example2()
	pool := expts.Example2Pool(lib)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := model.Build(g, pool, arch.PointToPoint{}, model.Options{Objective: model.MinMakespan, CostCap: 15}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLPRelaxation measures one root-LP solve of the Example 2 MILP.
func BenchmarkLPRelaxation(b *testing.B) {
	g, lib := expts.Example2()
	pool := expts.Example2Pool(lib)
	m, err := model.Build(g, pool, arch.PointToPoint{}, model.Options{Objective: model.MinMakespan, CostCap: 15})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, err := m.Prob.Solve(nil)
		if err != nil {
			b.Fatal(err)
		}
		if sol.Status.String() != "optimal" {
			b.Fatalf("root LP %v", sol.Status)
		}
	}
}

// --- LP kernel benchmarks (dense tableau vs sparse revised simplex) ---

// benchRootLP measures repeated root-LP solves of a prebuilt model under
// one kernel configuration.
func benchRootLP(b *testing.B, m *model.Model, opts *lp.Options) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, err := m.Prob.Solve(opts)
		if err != nil || sol.Status != lp.Optimal {
			b.Fatalf("root LP err=%v status=%v", err, sol.Status)
		}
	}
}

func example2Cap15(b *testing.B) *model.Model {
	b.Helper()
	g, lib := expts.Example2()
	pool := expts.Example2Pool(lib)
	m, err := model.Build(g, pool, arch.PointToPoint{}, model.Options{Objective: model.MinMakespan, CostCap: 15})
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// forcedPipelineModel builds an n-subtask series-parallel instance where
// subtask i runs only on processor type i: the mapping collapses and the
// root relaxation becomes a large sparse scheduling LP — the scaling
// workload the sparse kernel exists for (the lp rows of sosbench -perf).
func forcedPipelineModel(b *testing.B, n int) *model.Model {
	b.Helper()
	rng := rand.New(rand.NewSource(13))
	g := taskgraph.SeriesParallel(rng, taskgraph.StructuredSpec{Subtasks: n, MaxFan: 4})
	m, err := model.Build(g, arch.ForcedPool(rng, n), arch.PointToPoint{},
		model.Options{Objective: model.MinMakespan})
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkLPKernelDense solves the Example 2 root LP with the dense
// tableau forced.
func BenchmarkLPKernelDense(b *testing.B) {
	benchRootLP(b, example2Cap15(b), &lp.Options{Kernel: lp.KernelDense})
}

// BenchmarkLPKernelSparse is the sparse-revised-simplex counterpart.
func BenchmarkLPKernelSparse(b *testing.B) {
	benchRootLP(b, example2Cap15(b), &lp.Options{Kernel: lp.KernelSparse})
}

// BenchmarkLPKernelSparsePresolve adds the presolve reduction pass.
func BenchmarkLPKernelSparsePresolve(b *testing.B) {
	benchRootLP(b, example2Cap15(b), &lp.Options{Kernel: lp.KernelSparse, Presolve: true})
}

// BenchmarkLPScaleDense solves the 200-subtask forced-pipeline root LP
// with the dense tableau — the regime the sparse kernel outgrows.
func BenchmarkLPScaleDense(b *testing.B) {
	benchRootLP(b, forcedPipelineModel(b, 200), &lp.Options{Kernel: lp.KernelDense})
}

// BenchmarkLPScaleSparsePresolve is the sparse+presolve counterpart of
// BenchmarkLPScaleDense.
func BenchmarkLPScaleSparsePresolve(b *testing.B) {
	benchRootLP(b, forcedPipelineModel(b, 200), &lp.Options{Kernel: lp.KernelSparse, Presolve: true})
}

// BenchmarkHeuristicSynthesis measures the ETF-based baseline on
// Example 2 (the inexact comparator).
func BenchmarkHeuristicSynthesis(b *testing.B) {
	g, lib := expts.Example2()
	for i := 0; i < b.N; i++ {
		if _, err := heur.Synthesize(g, lib, arch.PointToPoint{}, heur.SynthOptions{MaxPerType: 2}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimReplay measures discrete-event replay of the Table IV
// Design 1 schedule.
func BenchmarkSimReplay(b *testing.B) {
	g, lib := expts.Example2()
	pool := expts.Example2Pool(lib)
	res, err := exact.Synthesize(context.Background(), g, pool, arch.PointToPoint{},
		exact.Options{Objective: exact.MinMakespan, CostCap: 15})
	if err != nil || res.Design == nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Replay(res.Design); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations (design choices called out in DESIGN.md) ---

// BenchmarkAblationSymmetryOff solves Example 2 cap-12 with the MILP's
// symmetry-breaking rows disabled, against BenchmarkAblationSymmetryOn.
// (Cap 12 is the hardest Example 2 point the MILP closes quickly.)
func BenchmarkAblationSymmetryOn(b *testing.B) { benchSymmetry(b, false) }

// BenchmarkAblationSymmetryOff is the counterpart without the rows.
func BenchmarkAblationSymmetryOff(b *testing.B) { benchSymmetry(b, true) }

func benchSymmetry(b *testing.B, off bool) {
	g, lib := expts.Example1()
	pool := expts.Example1Pool(lib)
	for i := 0; i < b.N; i++ {
		m, err := model.Build(g, pool, arch.PointToPoint{},
			model.Options{Objective: model.MinMakespan, CostCap: 14, NoSymmetryBreaking: off})
		if err != nil {
			b.Fatal(err)
		}
		design, sol, err := m.Solve(context.Background(), nil)
		if err != nil || sol.Status != milp.Optimal || math.Abs(design.Makespan-2.5) > 1e-6 {
			b.Fatalf("err=%v status=%v", err, sol.Status)
		}
	}
}

// BenchmarkAblationBoundsOn/Off measure the earliest-start bound
// tightening cuts.
func BenchmarkAblationBoundsOn(b *testing.B) { benchBounds(b, false) }

// BenchmarkAblationBoundsOff is the counterpart without tightened bounds.
func BenchmarkAblationBoundsOff(b *testing.B) { benchBounds(b, true) }

func benchBounds(b *testing.B, off bool) {
	g, lib := expts.Example1()
	pool := expts.Example1Pool(lib)
	for i := 0; i < b.N; i++ {
		m, err := model.Build(g, pool, arch.PointToPoint{},
			model.Options{Objective: model.MinMakespan, CostCap: 14, NoBoundTightening: off})
		if err != nil {
			b.Fatal(err)
		}
		design, sol, err := m.Solve(context.Background(), nil)
		if err != nil || sol.Status != milp.Optimal || math.Abs(design.Makespan-2.5) > 1e-6 {
			b.Fatalf("err=%v status=%v", err, sol.Status)
		}
	}
}

// BenchmarkAblationIncumbentOn/Off measure heuristic warm starts on the
// MILP (Example 1, cap 13).
func BenchmarkAblationIncumbentOn(b *testing.B) { benchIncumbent(b, true) }

// BenchmarkAblationIncumbentOff is the counterpart with a cold start.
func BenchmarkAblationIncumbentOff(b *testing.B) { benchIncumbent(b, false) }

func benchIncumbent(b *testing.B, warm bool) {
	g, lib := expts.Example1()
	pool := expts.Example1Pool(lib)
	for i := 0; i < b.N; i++ {
		m, err := model.Build(g, pool, arch.PointToPoint{},
			model.Options{Objective: model.MinMakespan, CostCap: 13})
		if err != nil {
			b.Fatal(err)
		}
		opts := &milp.Options{}
		if warm {
			if hd, err := heur.Synthesize(g, lib, arch.PointToPoint{}, heur.SynthOptions{CostCap: 13, MaxPerType: 2}); err == nil {
				if canon, err := schedule.Canonicalize(hd); err == nil {
					if rd, err := schedule.RemapPool(canon, pool); err == nil {
						if v, err := m.IncumbentVector(rd); err == nil {
							opts.Incumbent = v
						}
					}
				}
			}
		}
		design, sol, err := m.Solve(context.Background(), opts)
		if err != nil || sol.Status != milp.Optimal || math.Abs(design.Makespan-3) > 1e-6 {
			b.Fatalf("err=%v status=%v", err, sol.Status)
		}
	}
}

// BenchmarkAblationLoadCutsOn/Off measure the per-processor load cuts
// (T_F ≥ Σ D_PS·σ per instance) on the Example 2 cap-15 MILP with a
// warm-start incumbent: with the cuts the root LP bound reaches the
// optimum and the solve closes immediately; without them the same node
// budget leaves the point unproven (the bench asserts only agreement of
// the incumbent value in that case).
func BenchmarkAblationLoadCutsOn(b *testing.B) { benchLoadCuts(b, false) }

// BenchmarkAblationLoadCutsOff is the counterpart without the cuts.
func BenchmarkAblationLoadCutsOff(b *testing.B) { benchLoadCuts(b, true) }

func benchLoadCuts(b *testing.B, off bool) {
	g, lib := expts.Example2()
	pool := expts.Example2Pool(lib)
	res, err := exact.Synthesize(context.Background(), g, pool, arch.PointToPoint{},
		exact.Options{Objective: exact.MinMakespan, CostCap: 15})
	if err != nil || res.Design == nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := model.Build(g, pool, arch.PointToPoint{},
			model.Options{Objective: model.MinMakespan, CostCap: 15, NoLoadCuts: off})
		if err != nil {
			b.Fatal(err)
		}
		inc, err := m.IncumbentVector(mustCanonical(b, res.Design))
		if err != nil {
			b.Fatal(err)
		}
		design, sol, err := m.Solve(context.Background(), &milp.Options{
			TimeLimit: 30 * time.Second, MaxNodes: 60, Incumbent: inc,
		})
		if err != nil {
			b.Fatal(err)
		}
		if design == nil || math.Abs(design.Makespan-5) > 1e-6 {
			b.Fatalf("incumbent lost: %v", design)
		}
		if !off && sol.Status != milp.Optimal {
			b.Fatalf("with load cuts the cap-15 point must prove at the root, got %v after %d nodes",
				sol.Status, sol.Nodes)
		}
	}
}

func mustCanonical(b *testing.B, d *schedule.Design) *schedule.Design {
	b.Helper()
	c, err := schedule.Canonicalize(d)
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// BenchmarkAblationExactNoSymmetry measures the combinatorial engine's
// instance-canonicalization rule on Example 2.
func BenchmarkAblationExactSymmetryOn(b *testing.B) { benchExactSym(b, false) }

// BenchmarkAblationExactSymmetryOff is the counterpart without it.
func BenchmarkAblationExactSymmetryOff(b *testing.B) { benchExactSym(b, true) }

func benchExactSym(b *testing.B, off bool) {
	g, lib := expts.Example2()
	pool := expts.Example2Pool(lib)
	for i := 0; i < b.N; i++ {
		res, err := exact.Synthesize(context.Background(), g, pool, arch.PointToPoint{},
			exact.Options{Objective: exact.MinMakespan, CostCap: 15, NoSymmetry: off})
		if err != nil || res.Design == nil || math.Abs(res.Design.Makespan-5) > 1e-6 {
			b.Fatalf("err=%v res=%+v", err, res)
		}
	}
}
