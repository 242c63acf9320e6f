package lp_test

import (
	"math"
	"testing"

	"sos/internal/lp"
)

// TestResolverReleaseStaysWarm fixes a branch column of the Example 1
// cap-14 model to 0, releases it, and fixes it again, twice over. The
// column is fractional at the root, so a warm fixing drives it out of the
// basis at its upper bound, 0. The release must leave it resting at 0
// rather than move it to its new upper bound, 1, which would hand the
// dual repair a primal-infeasible start: a release takes no dual pivot.
// Every step agrees with a from-scratch solve, and every step after the
// first fixing is served warm without a fallback. The first fixing is
// exempt: from the sparse kernel's root basis its repair runs past the
// repair cap and rebuilds cold, which leaves the column at its lower
// bound, so that kernel reaches the case on its second release.
func TestResolverReleaseStaysWarm(t *testing.T) {
	m := pathModel(t, "ex1-cap14")
	root, err := m.Prob.Solve(nil)
	if err != nil || root.Status != lp.Optimal {
		t.Fatalf("root: %v %v", err, root.Status)
	}
	col := lp.ColID(-1)
	for _, c := range m.BranchCols() {
		if x := root.X[c]; x > 1e-6 && x < 1-1e-6 {
			col = c
			break
		}
	}
	if col < 0 {
		t.Fatal("the root LP has no fractional branch column")
	}
	fix, free := map[lp.ColID][2]float64{col: {0, 0}}, map[lp.ColID][2]float64{}
	for kern, name := range map[lp.Kernel]string{lp.KernelDense: "dense", lp.KernelSparse: "sparse"} {
		opts := &lp.Options{Kernel: kern}
		r, err := m.Prob.NewResolver(opts)
		if err != nil {
			t.Fatal(err)
		}
		for i, bounds := range []map[lp.ColID][2]float64{free, fix, free, fix, free, fix} {
			before := r.Stats()
			got := r.Solve(bounds)
			want, err := lp.SolveBounded(m.Prob, opts, bounds)
			if err != nil {
				t.Fatal(err)
			}
			if got.Status != want.Status ||
				math.Abs(got.Obj-want.Obj) > 1e-6*(1+math.Abs(want.Obj)) {
				t.Fatalf("%s step %d: resolver %v %g, fresh solve %v %g",
					name, i, got.Status, got.Obj, want.Status, want.Obj)
			}
			if i < 2 {
				continue // the root solve and the first fixing
			}
			st := r.Stats()
			if st.Warm != before.Warm+1 || st.Fallbacks != before.Fallbacks {
				t.Errorf("%s step %d: stats %+v after %+v, want one warm solve without a fallback",
					name, i, st, before)
			}
			if len(bounds) == 0 && st.DualIters != before.DualIters {
				t.Errorf("%s step %d: the release took %d dual pivots, want none",
					name, i, st.DualIters-before.DualIters)
			}
		}
	}
}
