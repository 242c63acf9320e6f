// Root cutting planes: cover cuts separated from knapsack rows.
//
// The SOS cost-cap row Σ cost_j·σ_j ≤ CAP is a pure 0/1 knapsack over the
// mapping binaries, and the fractional root relaxation routinely spreads a
// subtask across processors in proportions no integer solution can use.
// A cover C — a set of binaries whose combined cost exceeds the cap — gives
// the valid inequality Σ_{j∈C} x_j ≤ |C|−1, which cuts exactly those
// fractional points. Separation is the classic greedy heuristic with
// minimalization and extension; cuts are appended to a CLONE of the
// problem so the caller's model is untouched, and the tree search then
// runs on the tightened clone.
package milp

import (
	"math"
	"sort"
	"time"

	"sos/internal/lp"
	"sos/internal/telemetry"
)

// cutViolTol is the minimum violation for a cover cut to be worth adding:
// Σ_{j∈C}(1−v*_j) must fall short of 1 by at least this much.
const cutViolTol = 1e-4

// cutRounds bounds the root separation rounds.
const cutRounds = 5

// knapRow is one ≤ row over binary integer columns, complemented so all
// coefficients are positive: v_j = x_j when a_j > 0, v_j = 1−x_j when
// a_j < 0, giving Σ w_j·v_j ≤ cap with w_j = |a_j| > 0.
type knapRow struct {
	cols []lp.ColID
	w    []float64
	neg  []bool // v_j is the complement of x_j
	cap  float64
}

// knapsackRows extracts every row of p usable for cover separation.
func (s *Solver) knapsackRows(p *lp.Problem) []knapRow {
	var out []knapRow
	for i := 0; i < p.NumRows(); i++ {
		r := p.Row(i)
		if r.Sense != lp.Le || len(r.Terms) < 2 {
			continue
		}
		kr := knapRow{cap: r.Rhs}
		ok := true
		for _, t := range r.Terms {
			c := p.Col(t.Col)
			if !s.isInt[t.Col] || c.Lb < 0 || c.Ub > 1 || t.Coef == 0 {
				ok = false
				break
			}
			neg := t.Coef < 0
			if neg {
				kr.cap -= t.Coef // + |coef|
			}
			kr.cols = append(kr.cols, t.Col)
			kr.w = append(kr.w, math.Abs(t.Coef))
			kr.neg = append(kr.neg, neg)
		}
		if ok && kr.cap >= 0 {
			out = append(out, kr)
		}
	}
	return out
}

// coverCut is one separated inequality in the original variable space:
// Σ terms ≤ rhs.
type coverCut struct {
	terms []lp.Term
	rhs   float64
	viol  float64
	key   string
}

// separateCover runs greedy cover separation for one knapsack row at the
// fractional point x. Returns nil when no sufficiently violated cover
// exists.
func separateCover(kr *knapRow, x []float64) *coverCut {
	n := len(kr.cols)
	// v*_j in complemented space.
	v := make([]float64, n)
	for t, c := range kr.cols {
		xv := x[c]
		if kr.neg[t] {
			xv = 1 - xv
		}
		v[t] = math.Max(0, math.Min(1, xv))
	}
	// Greedy: pick items with the smallest 1−v* first (closest to 1 in the
	// relaxation) until the weights exceed the capacity.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		da, db := 1-v[order[a]], 1-v[order[b]]
		if da != db {
			return da < db
		}
		return kr.w[order[a]] > kr.w[order[b]]
	})
	inCover := make([]bool, n)
	var weight float64
	var cover []int
	for _, t := range order {
		if weight > kr.cap {
			break
		}
		inCover[t] = true
		cover = append(cover, t)
		weight += kr.w[t]
	}
	if weight <= kr.cap {
		return nil // the whole row fits: no cover exists
	}
	// Minimalize: drop members (lightest violation contribution first —
	// i.e. largest 1−v*) while the set stays a cover.
	sort.Slice(cover, func(a, b int) bool { return v[cover[a]] < v[cover[b]] })
	kept := cover[:0]
	for idx, t := range cover {
		if weight-kr.w[t] > kr.cap {
			weight -= kr.w[t]
			inCover[t] = false
			continue
		}
		kept = append(kept, cover[idx:]...)
		break
	}
	cover = kept
	if len(cover) < 2 {
		return nil
	}
	viol := 1.0
	maxW := 0.0
	for _, t := range cover {
		viol -= 1 - v[t]
		if kr.w[t] > maxW {
			maxW = kr.w[t]
		}
	}
	if viol < cutViolTol {
		return nil
	}
	// Extension: any item at least as heavy as the heaviest cover member
	// can replace it in every certificate, so it joins the left-hand side
	// without changing the right-hand side.
	for t := 0; t < n; t++ {
		if !inCover[t] && kr.w[t] >= maxW {
			inCover[t] = true
			cover = append(cover, t)
		}
	}
	// Translate Σ_{j∈C} v_j ≤ |C|−1 back: complemented members contribute
	// (1−x_j), each moving one unit to the right-hand side.
	cut := &coverCut{rhs: float64(len(cover) - 1), viol: viol}
	sort.Ints(cover)
	var key []byte
	for _, t := range cover {
		coef := 1.0
		if kr.neg[t] {
			coef = -1
			cut.rhs--
		}
		cut.terms = append(cut.terms, lp.Term{Col: kr.cols[t], Coef: coef})
		key = appendKey(key, int(kr.cols[t]), kr.neg[t])
	}
	cut.key = string(key)
	return cut
}

func appendKey(key []byte, col int, neg bool) []byte {
	if neg {
		key = append(key, '-')
	}
	for ; col > 0; col /= 10 {
		key = append(key, byte('0'+col%10))
	}
	return append(key, ',')
}

// addRootCuts runs the root separation loop: solve the relaxation, cut
// the fractional point, repeat. Each round solves through the search's
// own resolver, st.res. When a round adds cuts, st.s moves to a solver
// over the tightened clone and st.res to a fresh resolver over it; the
// original problem is never mutated. A loop that ends on an optimal solve therefore leaves st.res
// holding the final problem's root basis, and the root node re-solves it
// warm at unchanged bounds instead of cold a second time.
func (st *bbState) addRootCuts() error {
	s := st.s
	if len(s.integer) == 0 {
		return nil
	}
	var work *lp.Problem // clone, created lazily on the first cut
	seen := map[string]bool{}
	tel := st.opts.Telemetry
	for round := 0; round < cutRounds; round++ {
		if st.ctx.Err() != nil || (!st.deadline.IsZero() && time.Now().After(st.deadline)) {
			break
		}
		sol := st.res.Solve(nil)
		if sol.Status != lp.Optimal {
			break // let the tree search surface whatever this is
		}
		fractional := false
		for _, c := range s.integer {
			v := sol.X[c]
			if math.Abs(v-math.Round(v)) > intTol {
				fractional = true
				break
			}
		}
		if !fractional {
			break // integral root: cuts have nothing to separate
		}
		added := 0
		for _, kr := range s.knapsackRows(st.s.prob) {
			cut := separateCover(&kr, sol.X)
			if cut == nil || seen[cut.key] {
				continue
			}
			seen[cut.key] = true
			if work == nil {
				work = s.prob.Clone()
				st.s = &Solver{prob: work, integer: s.integer, isInt: s.isInt}
			}
			work.AddRow("cut-cover", lp.Le, cut.rhs, cut.terms...)
			added++
			st.cutsAdded++
			tel.Inc(telemetry.CtrCutsAdded)
			tel.Emit(telemetry.EvCut, cut.viol, "cover")
		}
		if added == 0 {
			break
		}
		res, err := work.NewResolver(st.lpOpts())
		if err != nil {
			return err
		}
		st.res = res
	}
	return nil
}
