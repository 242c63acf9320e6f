package lp_test

import (
	"fmt"
	"testing"

	"sos/internal/lp"
	"sos/internal/telemetry"
)

// Columns of the Example 1 cap-14 model (pathModel "ex1-cap14") that the
// workspace tests fix: σ(p,S) maps subtask S to processor instance p.
const (
	sigmaP1aS1 lp.ColID = 21
	sigmaP1bS1 lp.ColID = 22
	sigmaP2bS1 lp.ColID = 24
	sigmaP1aS2 lp.ColID = 25
	sigmaP2aS2 lp.ColID = 27
	sigmaP3aS2 lp.ColID = 29
	sigmaP3aS3 lp.ColID = 35
	sigmaP1aS4 lp.ColID = 37
	sigmaP1bS4 lp.ColID = 38
	alphaS1S2  lp.ColID = 58
)

// checkFixedCols fails the test unless the fixed columns above are the
// σ and α columns their names say, so a model change cannot silently
// turn the bound sets below into other ones.
func checkFixedCols(t *testing.T, p *lp.Problem) {
	t.Helper()
	want := map[lp.ColID]string{
		sigmaP1aS1: "sigma(p1a,S1)", sigmaP1bS1: "sigma(p1b,S1)", sigmaP2bS1: "sigma(p2b,S1)",
		sigmaP1aS2: "sigma(p1a,S2)", sigmaP2aS2: "sigma(p2a,S2)", sigmaP3aS2: "sigma(p3a,S2)",
		sigmaP3aS3: "sigma(p3a,S3)", sigmaP1aS4: "sigma(p1a,S4)", sigmaP1bS4: "sigma(p1b,S4)",
		alphaS1S2: "alpha(S1,S2)",
	}
	for c, name := range want {
		if got := p.Col(c).Name; got != name {
			t.Fatalf("column %d is %s, want %s", c, got, name)
		}
	}
}

// coldSets are bound sets on the Example 1 cap-14 model, each at least two
// columns from the one before, so a resolver serves every one of them
// cold. Fixing mappings to 1 raises lower bounds and so the number of rows
// that need an artificial: the builds take 22, 24, 33, 25, 24, 22 and 22
// artificials, so the tableau's storage grows and is then reused at a
// smaller width. The fourth set maps S1 twice and is infeasible.
func coldSets() []map[lp.ColID][2]float64 {
	one, zero := [2]float64{1, 1}, [2]float64{0, 0}
	return []map[lp.ColID][2]float64{
		{},
		{sigmaP1aS1: one, sigmaP2aS2: one},
		{sigmaP1aS1: one, sigmaP3aS2: one, sigmaP3aS3: one, sigmaP1aS4: one},
		{sigmaP1aS1: one, sigmaP1bS1: one, sigmaP2aS2: one},
		{sigmaP1aS1: one, sigmaP2aS2: one, alphaS1S2: zero},
		{sigmaP2bS1: zero, sigmaP1aS2: zero},
		{},
	}
}

// coldSetArtificials is the artificial count each cold set's build lays out.
var coldSetArtificials = []int{22, 24, 33, 25, 24, 22, 22}

// TestResolverColdMatchesFresh drives one resolver through bound sets that
// all rebuild cold, so every build after the first reuses the workspace
// the one before left, at a larger and then a smaller tableau width, and
// through an infeasible solve. Each answer must be bit-identical to a
// fresh solve of a copy of the model that carries the set's bounds
// (SolveBounded): status, iterations, objective, and every X and reduced
// cost (coldRecord hashes them). With presolve the resolver reduces the
// model once, which removes nothing from this model, and translates each
// set's bounds, so its kernel solves the same LP as the reference; a
// presolve of each bounded copy would instead substitute the fixed
// columns out and solve a smaller LP, so the reference runs without one.
func TestResolverColdMatchesFresh(t *testing.T) {
	m := pathModel(t, "ex1-cap14")
	checkFixedCols(t, m.Prob)
	for _, presolve := range []bool{false, true} {
		t.Run(fmt.Sprintf("presolve=%v", presolve), func(t *testing.T) {
			tel := telemetry.New(nil)
			r, err := m.Prob.NewResolver(&lp.Options{Kernel: lp.KernelDense, Presolve: presolve, Telemetry: tel})
			if err != nil {
				t.Fatal(err)
			}
			if n := tel.Get(telemetry.CtrLPPresolveRows) + tel.Get(telemetry.CtrLPPresolveCols); n != 0 {
				t.Fatalf("presolve removed %d rows and columns; the fresh solves assume none", n)
			}
			sets := coldSets()
			for i, bounds := range sets {
				got := r.Solve(bounds)
				if !presolve {
					if a := r.Artificials(); a != coldSetArtificials[i] {
						t.Errorf("set %d: build laid out %d artificials, want %d", i, a, coldSetArtificials[i])
					}
				}
				want, err := lp.SolveBounded(m.Prob, &lp.Options{Kernel: lp.KernelDense}, bounds)
				if err != nil {
					t.Fatal(err)
				}
				if g, w := coldRecord(got), coldRecord(want); g != w {
					t.Errorf("set %d (%v): got %s, fresh solve %s", i, bounds, g, w)
				}
				if i == 3 && got.Status != lp.Infeasible {
					t.Errorf("set 3: %v, want infeasible", got.Status)
				}
			}
			if st := r.Stats(); st.Cold != len(sets) || st.Warm != 0 || st.Fallbacks != 0 {
				t.Errorf("want %d cold solves and no warm attempt, got %+v", len(sets), st)
			}
		})
	}
}

// coldAllocsMax pins the heap allocations of one cold re-solve on a
// resolver whose workspace has reached its size (0 on linux/amd64 with Go
// 1.24; each cold rebuild allocated a fresh tableau row by row, about 650
// allocations, before the workspace was reused).
const coldAllocsMax = 0

// TestResolverColdAllocs pins the allocations of cold re-solves after the
// first: two bound sets four columns apart alternate, so each solve
// rebuilds the tableau, into the storage the solves before left.
func TestResolverColdAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	m := pathModel(t, "ex1-cap14")
	checkFixedCols(t, m.Prob)
	r, err := m.Prob.NewResolver(&lp.Options{Kernel: lp.KernelDense})
	if err != nil {
		t.Fatal(err)
	}
	one, zero := [2]float64{1, 1}, [2]float64{0, 0}
	sets := []map[lp.ColID][2]float64{
		{sigmaP1aS1: one, sigmaP2aS2: one},
		{sigmaP2bS1: zero, sigmaP1aS2: zero},
	}
	for _, b := range sets {
		if sol := r.Solve(b); sol.Status != lp.Optimal {
			t.Fatalf("warm-up solve: %v", sol.Status)
		}
	}
	i := 1 // the next solve takes sets[0], four columns from the last warm-up's
	allocs := testing.AllocsPerRun(20, func() {
		i++
		if sol := r.Solve(sets[i%2]); sol.Status != lp.Optimal {
			t.Fatalf("re-solve %d: %v", i, sol.Status)
		}
	})
	if st := r.Stats(); st.Warm != 0 || st.Fallbacks != 0 {
		t.Fatalf("want cold solves only, got %+v", st)
	}
	if allocs > coldAllocsMax {
		t.Errorf("a cold re-solve allocates %v times, want at most %d", allocs, coldAllocsMax)
	}
}

// closeAtPivot returns options whose OnPivot hook closes the Done channel
// once the iteration count reaches at (while armed reports true), and
// counts the hook's calls after the close.
func closeAtPivot(at int, armed func() bool) (*lp.Options, *int, *int) {
	done := make(chan struct{})
	closedAt, after := -1, 0
	o := &lp.Options{Kernel: lp.KernelDense, Done: done, Hooks: &lp.Hooks{OnPivot: func(it int) {
		switch {
		case closedAt >= 0:
			after++
		case it >= at && armed():
			closedAt = it
			close(done)
		}
	}}}
	return o, &closedAt, &after
}

// TestSolveStopsOnDone closes the Done channel at pivot 5 of the Example 1
// cap-14 cold solve (128 pivots uncanceled): the primal loop must return
// IterLimit within one poll stride.
func TestSolveStopsOnDone(t *testing.T) {
	m := pathModel(t, "ex1-cap14")
	o, closedAt, after := closeAtPivot(5, func() bool { return true })
	sol, err := m.Prob.Solve(o)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != lp.IterLimit {
		t.Fatalf("status %v after cancellation, want iteration-limit", sol.Status)
	}
	if *closedAt != 5 || *after > lp.DeadlineStride || sol.Iters-*closedAt > lp.DeadlineStride {
		t.Errorf("closed at pivot %d, stopped after %d more hook calls at iteration %d; want within %d",
			*closedAt, *after, sol.Iters, lp.DeadlineStride)
	}
}

// TestResolverRepairStopsOnDone closes the Done channel at pivot 5 of a
// warm dual repair (fixing σ(p1b,S4) to 1 below the Example 1 cap-14 root
// repairs in 83 pivots uncanceled): the repair must return IterLimit
// within one poll stride, and the resolver must not rebuild cold.
func TestResolverRepairStopsOnDone(t *testing.T) {
	m := pathModel(t, "ex1-cap14")
	checkFixedCols(t, m.Prob)
	rootDone := false
	o, closedAt, after := closeAtPivot(5, func() bool { return rootDone })
	r, err := m.Prob.NewResolver(o)
	if err != nil {
		t.Fatal(err)
	}
	if sol := r.Solve(nil); sol.Status != lp.Optimal {
		t.Fatalf("root: %v", sol.Status)
	}
	rootDone = true
	sol := r.Solve(map[lp.ColID][2]float64{sigmaP1bS4: {1, 1}})
	if sol.Status != lp.IterLimit {
		t.Fatalf("status %v after cancellation, want iteration-limit", sol.Status)
	}
	if *closedAt < 5 || *after > lp.DeadlineStride || sol.Iters-*closedAt > lp.DeadlineStride {
		t.Errorf("closed at pivot %d, stopped after %d more hook calls at iteration %d; want within %d",
			*closedAt, *after, sol.Iters, lp.DeadlineStride)
	}
	if st := r.Stats(); st.Cold != 1 || st.Warm != 1 || st.Fallbacks != 0 {
		t.Errorf("a canceled repair must not rebuild cold: %+v", st)
	}
}
