package milp

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"sos/internal/lp"
)

// buildRandomMIP creates a random feasible 0/1 problem and returns it with
// its integer columns.
func buildRandomMIP(rng *rand.Rand, n, m int) (*lp.Problem, []lp.ColID) {
	p := lp.NewProblem("rmip")
	var cols []lp.ColID
	for j := 0; j < n; j++ {
		cols = append(cols, p.AddCol("", 0, 1, float64(rng.Intn(19)-9)))
	}
	for i := 0; i < m; i++ {
		terms := make([]lp.Term, 0, n)
		total := 0.0
		for j := 0; j < n; j++ {
			c := float64(rng.Intn(5) - 1)
			if c != 0 {
				terms = append(terms, lp.Term{Col: cols[j], Coef: c})
			}
			if c > 0 {
				total += c
			}
		}
		if len(terms) == 0 {
			continue
		}
		p.AddRow("", lp.Le, total*(0.4+rng.Float64()*0.4), terms...)
	}
	return p, cols
}

// TestAllStrategiesAgree runs every (branch rule × node order) combination
// on random MIPs and checks all find the same optimum.
func TestAllStrategiesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	rules := []BranchRule{BranchMostFractional, BranchFirstIndex, BranchPseudoCost}
	orders := []NodeOrder{DepthFirst, BestFirst}
	for trial := 0; trial < 25; trial++ {
		p, cols := buildRandomMIP(rng, 4+rng.Intn(8), 2+rng.Intn(4))
		ref := math.NaN()
		for _, rule := range rules {
			for _, order := range orders {
				sol, err := New(p, cols).Solve(context.Background(), &Options{Branch: rule, Order: order})
				if err != nil {
					t.Fatal(err)
				}
				if sol.Status != Optimal {
					t.Fatalf("trial %d rule %d order %d: status %v", trial, rule, order, sol.Status)
				}
				if math.IsNaN(ref) {
					ref = sol.Obj
				} else if math.Abs(sol.Obj-ref) > 1e-6 {
					t.Fatalf("trial %d: rule %d order %d found %g, reference %g",
						trial, rule, order, sol.Obj, ref)
				}
			}
		}
	}
}

// TestBestFirstBoundMonotone: with best-first order, a proven optimum's
// objective equals its final bound.
func TestBestFirstBoundMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p, cols := buildRandomMIP(rng, 10, 4)
	sol, err := New(p, cols).Solve(context.Background(), &Options{Order: BestFirst})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status %v", sol.Status)
	}
	if math.Abs(sol.Bound-sol.Obj) > 1e-6 {
		t.Errorf("optimal solution has bound %g != obj %g", sol.Bound, sol.Obj)
	}
}

// TestPseudoCostBookkeeping exercises observe/score directly.
func TestPseudoCostBookkeeping(t *testing.T) {
	pc := newPseudoCost()
	c := lp.ColID(3)
	if s := pc.score(c, 0.5); s <= 0 {
		t.Errorf("uninitialized score %g", s)
	}
	pc.observe(c, true, 4)
	pc.observe(c, true, 2)
	pc.observe(c, false, 1)
	up := pc.upSum[c] / float64(pc.upCnt[c])
	if up != 3 {
		t.Errorf("up average = %g, want 3", up)
	}
	// Larger history should raise the score versus a cold column.
	cold := lp.ColID(9)
	if pc.score(c, 0.5) <= pc.score(cold, 0.5) {
		t.Errorf("hot column not preferred: %g vs %g", pc.score(c, 0.5), pc.score(cold, 0.5))
	}
	// Negative observations clamp to zero rather than corrupting state.
	pc.observe(c, false, -5)
	if pc.downSum[c] != 1 {
		t.Errorf("negative observation not clamped: %g", pc.downSum[c])
	}
}

// TestFrontierContainer checks both orders of the open-node container.
func TestFrontierContainer(t *testing.T) {
	df := newFrontier(DepthFirst)
	df.push(&node{bound: 1})
	df.push(&node{bound: 2})
	if n := df.pop(); n.bound != 2 {
		t.Errorf("depth-first pop = %g, want LIFO 2", n.bound)
	}
	bf := newFrontier(BestFirst)
	bf.push(&node{bound: 5})
	bf.push(&node{bound: 1})
	bf.push(&node{bound: 3})
	if n := bf.pop(); n.bound != 1 {
		t.Errorf("best-first pop = %g, want 1", n.bound)
	}
	if bf.pop(); bf.empty() {
		// one node left
		t.Error("frontier emptied early")
	}
	bf.pop()
	if !bf.empty() || bf.pop() != nil {
		t.Error("empty frontier misbehaves")
	}
}
