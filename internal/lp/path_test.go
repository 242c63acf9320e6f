package lp_test

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"strings"
	"testing"

	"sos/internal/arch"
	"sos/internal/expts"
	"sos/internal/lp"
	"sos/internal/model"
	"sos/internal/telemetry"
)

// pathModel builds one of the paper models the path pins cover: the
// Example 1 MILP at cost cap 14 and the Example 2 MILP at cost cap 15
// (Table II's and Table IV's first rows), both point to point, and the
// Example 1 cap-14 model with the §5 local-memory extension, whose
// memory-sizing columns and rows presolve eliminates (the plain paper
// models have nothing for it to remove).
func pathModel(t *testing.T, name string) *model.Model {
	t.Helper()
	var (
		m   *model.Model
		err error
	)
	opts := model.Options{Objective: model.MinMakespan}
	switch name {
	case "ex1-cap14", "ex1-cap14-mem":
		g, lib := expts.Example1()
		opts.CostCap = 14
		opts.Memory = name == "ex1-cap14-mem"
		m, err = model.Build(g, expts.Example1Pool(lib), arch.PointToPoint{}, opts)
	case "ex2-cap15":
		g, lib := expts.Example2()
		opts.CostCap = 15
		m, err = model.Build(g, expts.Example2Pool(lib), arch.PointToPoint{}, opts)
	default:
		t.Fatalf("unknown model %q", name)
	}
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// solutionHash folds a solution's status, iteration count, objective bits
// and every bit of X and ReducedCosts into h.
func solutionHash(h hash.Hash64, sol *lp.Solution) {
	var buf [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(buf[:], u)
		h.Write(buf[:])
	}
	put(uint64(sol.Status))
	put(uint64(sol.Iters))
	put(math.Float64bits(sol.Obj))
	put(uint64(len(sol.X)))
	for _, v := range sol.X {
		put(math.Float64bits(v))
	}
	put(uint64(len(sol.ReducedCosts)))
	for _, v := range sol.ReducedCosts {
		put(math.Float64bits(v))
	}
}

// coldRecord renders one cold solve as "status/iters/objbits/hash".
func coldRecord(sol *lp.Solution) string {
	h := fnv.New64a()
	solutionHash(h, sol)
	return fmt.Sprintf("%v/%d/%016x/%016x", sol.Status, sol.Iters, math.Float64bits(sol.Obj), h.Sum64())
}

// pathFix is one branching decision on the dive stack.
type pathFix struct {
	col     lp.ColID
	up      bool
	flipped bool
}

// pathSteps is the length of the resolver walk.
const pathSteps = 40

// driveResolverPath walks a resolver through a fixed depth-first search
// over the model's branch columns. Each step fixes the first fractional
// branch column of the last optimal solution (down on even steps, up on
// odd), a single-column delta the warm path serves. Every dead end (an
// infeasible or integral node) and every fifth step backtracks like
// branch and bound: the deepest unflipped fixing flips to its other side
// after popping the exhausted ones, a jump of one or more columns, and
// every third backtrack also drops two more levels, a multi-column jump
// that rebuilds cold. It returns the per-step "status-letter iters" trace
// and a digest of every solution bit along the walk.
func driveResolverPath(t *testing.T, r *lp.Resolver, branch []lp.ColID) (string, uint64) {
	t.Helper()
	var stack []pathFix
	bounds := func() map[lp.ColID][2]float64 {
		b := make(map[lp.ColID][2]float64, len(stack))
		for _, f := range stack {
			v := 0.0
			if f.up {
				v = 1
			}
			b[f.col] = [2]float64{v, v}
		}
		return b
	}
	h := fnv.New64a()
	var trace []string
	backtracks := 0
	var sol *lp.Solution
	for step := 0; step < pathSteps; step++ {
		if step > 0 {
			col := lp.ColID(-1)
			if sol.Status == lp.Optimal && step%5 != 0 {
				for _, c := range branch {
					if x := sol.X[c]; x > 1e-6 && x < 1-1e-6 {
						col = c
						break
					}
				}
			}
			if col >= 0 {
				stack = append(stack, pathFix{col: col, up: step%2 == 1})
			} else {
				backtracks++
				if backtracks%3 == 0 && len(stack) > 2 {
					stack = stack[:len(stack)-2]
				}
				for len(stack) > 0 && stack[len(stack)-1].flipped {
					stack = stack[:len(stack)-1]
				}
				if n := len(stack); n > 0 {
					stack[n-1].up = !stack[n-1].up
					stack[n-1].flipped = true
				}
			}
		}
		sol = r.Solve(bounds())
		solutionHash(h, sol)
		trace = append(trace, fmt.Sprintf("%c%d", sol.Status.String()[0], sol.Iters))
	}
	return strings.Join(trace, " "), h.Sum64()
}

// kernelPath is what one kernel configuration must reproduce exactly.
type kernelPath struct {
	cold     string          // Problem.Solve: status/iters/objbits/hash
	steps    string          // resolver walk: status letter + iters per step
	digest   uint64          // resolver walk: every solution bit
	stats    lp.ResolveStats // resolver walk: how the solves were served
	refactor int64           // resolver walk: sparse basis refactorizations
}

// pathConfig is one pinned configuration: a model, a kernel, and whether
// presolve runs in front of the kernel.
type pathConfig struct {
	model    string
	kern     lp.Kernel
	presolve bool
}

func (c pathConfig) String() string {
	kern := "dense"
	if c.kern == lp.KernelSparse {
		kern = "sparse"
	}
	return fmt.Sprintf("%s/%s/presolve=%v", c.model, kern, c.presolve)
}

// pathConfigs are the pinned configurations: both kernels on the two
// paper models, and both kernels with and without presolve on the memory
// model, the one of the three that presolve reduces.
var pathConfigs = []pathConfig{
	{"ex1-cap14", lp.KernelDense, false},
	{"ex1-cap14", lp.KernelSparse, false},
	{"ex2-cap15", lp.KernelDense, false},
	{"ex2-cap15", lp.KernelSparse, false},
	{"ex1-cap14-mem", lp.KernelDense, false},
	{"ex1-cap14-mem", lp.KernelSparse, false},
	{"ex1-cap14-mem", lp.KernelDense, true},
	{"ex1-cap14-mem", lp.KernelSparse, true},
}

// coldPath records the cold Problem.Solve of one configuration.
func coldPath(t *testing.T, m *model.Model, c pathConfig) string {
	t.Helper()
	sol, err := m.Prob.Solve(&lp.Options{Kernel: c.kern, Presolve: c.presolve})
	if err != nil {
		t.Fatal(err)
	}
	return coldRecord(sol)
}

// walkPath records the resolver walk of one configuration. Under presolve
// it fails the test unless the reduction removed something, since a
// configuration whose presolve is a no-op pins no reduced problem.
func walkPath(t *testing.T, m *model.Model, c pathConfig) kernelPath {
	t.Helper()
	tel := telemetry.New(nil)
	r, err := m.Prob.NewResolver(&lp.Options{Kernel: c.kern, Presolve: c.presolve, Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	if c.presolve && tel.Get(telemetry.CtrLPPresolveRows)+tel.Get(telemetry.CtrLPPresolveCols) == 0 {
		t.Fatalf("%v: presolve removed no row or column", c)
	}
	var got kernelPath
	got.steps, got.digest = driveResolverPath(t, r, m.BranchCols())
	got.stats = r.Stats()
	got.refactor = tel.Get(telemetry.CtrLPRefactors)
	return got
}

// TestKernelPivotPaths pins the exact pivot path each LP kernel walks on
// the paper's models: a cold Problem.Solve and a 40-step Resolver walk
// whose dives take the warm path (bound update, dual repair, primal
// cleanup) and whose backtracks rebuild cold, with the sparse kernel
// refactorizing its basis along the way. On the memory model the walk
// also runs with presolve, so the kernels solve the reduced problem and
// the resolver translates every node's bounds through the reduction.
// Iteration counts, objective bits and a hash of every X and ReducedCosts
// bit must match: the kernel equivalence tests compare the kernels with
// each other within 1e-6, while this test holds each kernel to its own
// recorded path, so a change to the shared simplex driver or to either
// basis that alters one pivot choice or one bit of a solution fails here.
func TestKernelPivotPaths(t *testing.T) {
	want := map[string]kernelPath{
		"ex1-cap14/dense/presolve=false": {
			cold:     "optimal/128/4004000000000004/f7a7471a1a9a3a16",
			steps:    "o128 o12 o11 o4 o2 o95 i8 o67 o108 o9 o24 o16 o3 o63 o20 o7 i10 o80 o4 o12 o101 o6 o4 o76 i70 o80 i75 o83 o2 o90 o102 o35 o42 o11 o43 o77 o4 o3 i49 o76",
			digest:   0x70cc190fea6b114d,
			stats:    lp.ResolveStats{Cold: 13, Warm: 27, Fallbacks: 4, DualIters: 580, PrimalIters: 24},
			refactor: 0,
		},
		"ex1-cap14/sparse/presolve=false": {
			cold:     "optimal/128/4004000000000000/b67b139e7993f091",
			steps:    "o128 o28 o27 o23 o3 o73 o15 i0 o42 o58 o65 o3 i36 o33 i54 o91 o48 i26 o98 o80 o112 i72 o90 i72 o89 o106 o37 o7 i53 o77 o103 o13 o14 o19 o3 o67 o14 o72 o3 o2",
			digest:   0x4deb3411c8e84b1f,
			stats:    lp.ResolveStats{Cold: 16, Warm: 24, Fallbacks: 8, DualIters: 575, PrimalIters: 19},
			refactor: 45,
		},
		"ex2-cap15/dense/presolve=false": {
			cold:     "optimal/422/4013ffffffffffff/810f434d0cbe089b",
			steps:    "o422 o52 o18 o331 o2 o257 i49 i190 o393 o45 o422 o334 o2 o183 i13 i82 o336 i8 i265 o342 o296 o10 o302 o419 o563 o304 o27 o125 o326 o119 o273 i216 o361 i152 o173 o277 o22 o119 o9 o4",
			digest:   0x992cf1d79f89e365,
			stats:    lp.ResolveStats{Cold: 21, Warm: 19, Fallbacks: 13, DualIters: 1091, PrimalIters: 14},
			refactor: 0,
		},
		"ex2-cap15/sparse/presolve=false": {
			cold:     "optimal/295/4013ffffffffff20/be23928db959a5c6",
			steps:    "o295 o95 o206 o98 o11 o360 o2 o87 o44 i4 i113 o272 i14 o464 o11 i162 o565 o365 o21 o37 o161 o9 o74 o2 o5 o47 o254 o2 o3 o2 i330 o335 i25 o146 o2 i241 o315 o2 o19 o2",
			digest:   0x3f3610e7867aa7e4,
			stats:    lp.ResolveStats{Cold: 11, Warm: 29, Fallbacks: 4, DualIters: 1382, PrimalIters: 24},
			refactor: 94,
		},
		"ex1-cap14-mem/dense/presolve=false": {
			cold:     "optimal/134/4004000000000004/fca8fd910015dd18",
			steps:    "o134 o12 o11 o4 o2 o95 i8 o67 o114 o9 o24 o16 o3 o69 o20 o7 i10 o86 o4 o12 o101 o6 o4 o82 i76 o86 i81 o89 o2 o96 o108 o35 o42 o11 o43 o83 o4 o3 i49 o82",
			digest:   0x84a8711ad37a68dd,
			stats:    lp.ResolveStats{Cold: 13, Warm: 27, Fallbacks: 4, DualIters: 580, PrimalIters: 24},
			refactor: 0,
		},
		"ex1-cap14-mem/sparse/presolve=false": {
			cold:     "optimal/135/4003ffffffffffd8/60543b72f073b02b",
			steps:    "o135 o56 o27 i15 o108 o89 o2 i14 o102 o15 o60 o8 o96 o19 o30 o94 o6 o3 i21 o89 o74 o14 o13 o8 o2 o12 o86 i70 o71 o3 o3 o2 i45 o93 o11 i83 o104 o37 o71 o22",
			digest:   0x590200679e5f9422,
			stats:    lp.ResolveStats{Cold: 15, Warm: 25, Fallbacks: 6, DualIters: 427, PrimalIters: 21},
			refactor: 39,
		},
		"ex1-cap14-mem/dense/presolve=true": {
			cold:     "optimal/128/4004000000000004/5ad0b329276bcd76",
			steps:    "o128 o12 o11 o4 o2 o95 i8 o67 o108 o9 o24 o16 o3 o63 o20 o7 i10 o80 o4 o12 o101 o6 o4 o76 i70 o80 i75 o83 o2 o90 o102 o35 o42 o11 o43 o77 o4 o3 i49 o76",
			digest:   0x28b884019a81f25b,
			stats:    lp.ResolveStats{Cold: 13, Warm: 27, Fallbacks: 4, DualIters: 580, PrimalIters: 24},
			refactor: 0,
		},
		"ex1-cap14-mem/sparse/presolve=true": {
			cold:     "optimal/128/4004000000000000/a30e74dc12662175",
			steps:    "o128 o28 o27 o23 o3 o73 o15 i0 o42 o58 o65 o3 i36 o33 i54 o91 o48 i26 o98 o80 o112 i72 o90 i72 o89 o106 o37 o7 i53 o77 o103 o13 o14 o19 o3 o67 o14 o72 o3 o2",
			digest:   0x16254631f14c9349,
			stats:    lp.ResolveStats{Cold: 16, Warm: 24, Fallbacks: 8, DualIters: 575, PrimalIters: 19},
			refactor: 45,
		},
	}
	models := map[string]*model.Model{}
	for _, c := range pathConfigs {
		t.Run(c.String(), func(t *testing.T) {
			m := models[c.model]
			if m == nil {
				m = pathModel(t, c.model)
				models[c.model] = m
			}
			w, ok := want[c.String()]
			if !ok {
				t.Fatalf("no recorded path for %v", c)
			}
			if got := coldPath(t, m, c); got != w.cold {
				t.Errorf("cold solve changed: got %q, want %q", got, w.cold)
			}
			if raceEnabled && c.model == "ex2-cap15" {
				// The walk is single-goroutine arithmetic the race
				// detector has nothing to say about, and it slows the
				// Example 2 walks 8–23x (~100 s for the two); plain go
				// test runs them, and CI runs that too.
				t.Skip("Example 2 resolver walk skipped under the race detector")
			}
			got := walkPath(t, m, c)
			got.cold = w.cold
			if got != w {
				t.Errorf("resolver walk changed:\n got %#v\nwant %#v", got, w)
			}
		})
	}
}
