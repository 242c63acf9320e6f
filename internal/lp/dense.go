package lp

import "math"

// denseBasis is the dense tableau kernel: it keeps B⁻¹A explicitly, one
// dense row per constraint, and updates the reduced costs inside its
// row-reduction pivot, so pricing costs nothing per iteration. Its work
// per pivot is rows × (nonzeros of the pivot row), which wins on
// Example 1's models (DESIGN.md §11.1).
type denseBasis struct {
	s      *simplex
	tab    [][]float64 // m × nTot, kept as B⁻¹A
	pivIdx []int32     // scratch: nonzero support of the current pivot row
}

// build assembles the equality-form tableau. Every row is normalized to
//
//	a·x + slack = b   (slack ∈ [0,∞) for ≤-normalized rows; none for =)
//
// with ≥ rows multiplied by −1 first. Structural nonbasics start at their
// lower bound; a slack whose implied value is feasible becomes basic,
// otherwise the row receives a basic artificial absorbing the residual.
func (b *denseBasis) build() {
	s := b.s
	p := s.p
	s.m = len(p.rows)
	s.nStruct = len(p.cols)

	// Per-row slack allocation.
	slackOf := make([]int, s.m) // internal column of row's slack, or -1
	nSlack := 0
	for i, r := range p.rows {
		if r.Sense == Eq {
			slackOf[i] = -1
		} else {
			slackOf[i] = s.nStruct + nSlack
			nSlack++
		}
	}
	// Worst case one artificial per row; allocate lazily below.
	s.nTot = s.nStruct + nSlack // artificials appended as needed
	lbs, ubs := s.initBounds(nSlack)

	// Dense rows in ≤-normalized equality form.
	rowA := make([][]float64, s.m)
	rhs := make([]float64, s.m)
	for i, r := range p.rows {
		a := make([]float64, s.nTot) // artificial columns appended later
		sign := 1.0
		if r.Sense == Ge {
			sign = -1
		}
		for _, t := range r.Terms {
			a[t.Col] += sign * t.Coef
		}
		if slackOf[i] >= 0 {
			a[slackOf[i]] = 1
		}
		rowA[i] = a
		rhs[i] = sign * r.Rhs
	}

	// Nonbasic structural start values: lower bound.
	xN := make([]float64, s.nTot)
	for j := 0; j < s.nStruct; j++ {
		xN[j] = lbs[j]
	}

	// Residual per row given all structural at lb, slacks at 0.
	s.basicVar = make([]int, s.m)
	s.xB = make([]float64, s.m)
	artRows := []int{}
	for i := 0; i < s.m; i++ {
		res := rhs[i]
		for j := 0; j < s.nStruct; j++ {
			if rowA[i][j] != 0 {
				res -= rowA[i][j] * xN[j]
			}
		}
		if slackOf[i] >= 0 && res >= 0 {
			// Slack can serve as the basic variable directly.
			s.basicVar[i] = slackOf[i]
			s.xB[i] = res
		} else {
			s.basicVar[i] = -1 // artificial needed
			s.xB[i] = res      // signed residual; fixed below
			artRows = append(artRows, i)
		}
	}

	nArt := len(artRows)
	total := s.nTot + nArt
	s.isArt = make([]bool, total)
	for k, i := range artRows {
		col := s.nTot + k
		s.isArt[col] = true
		lbs = append(lbs, 0)
		ubs = append(ubs, math.Inf(1))
		coef := 1.0
		if s.xB[i] < 0 {
			coef = -1
		}
		// Extend row i with the artificial column; others get 0 via the
		// reallocation below.
		rowA[i] = append(rowA[i], make([]float64, nArt)...)
		rowA[i][col] = coef
		s.basicVar[i] = col
		s.xB[i] = math.Abs(s.xB[i])
	}
	for i := 0; i < s.m; i++ {
		if len(rowA[i]) < total {
			rowA[i] = append(rowA[i], make([]float64, total-len(rowA[i]))...)
		}
	}
	s.nTot = total
	s.lb, s.ub = lbs, ubs

	// Scale rows so basic columns have coefficient +1 (artificials with
	// coefficient −1 were introduced only when residual < 0; scaling flips
	// the row so its basis entry is +1).
	for i := 0; i < s.m; i++ {
		bv := s.basicVar[i]
		if rowA[i][bv] < 0 {
			for j := range rowA[i] {
				rowA[i][j] = -rowA[i][j]
			}
		}
	}
	// Every basic column (slack or artificial) appears in exactly one row,
	// so the basis is already the identity and the rows are B⁻¹A.
	b.tab = rowA
	s.initBasis()
}

// refactor has nothing to do: the tableau is B⁻¹A from the start and every
// pivot keeps it so.
func (b *denseBasis) refactor() bool { return true }

// resetCosts computes d_j = c_j − Σ_i c_B(i) · tab[i][j].
func (b *denseBasis) resetCosts() {
	s := b.s
	copy(s.d, s.cost)
	for i := 0; i < s.m; i++ {
		cb := s.cost[s.basicVar[i]]
		if cb == 0 {
			continue
		}
		row := b.tab[i]
		for j := 0; j < s.nTot; j++ {
			if row[j] != 0 {
				s.d[j] -= cb * row[j]
			}
		}
	}
}

// price has nothing to do: pivot keeps the reduced costs current.
func (b *denseBasis) price() {}

// column gathers tableau column j.
func (b *denseBasis) column(j int) {
	w := b.s.w
	for i, row := range b.tab {
		w[i] = row[j]
	}
}

// row returns tableau row i itself.
func (b *denseBasis) row(i int) []float64 { return b.tab[i] }

// pivot performs the full tableau row reduction on pivot element
// tab[r][j], carrying the reduced-cost row along.
func (b *denseBasis) pivot(r, j int) {
	s := b.s
	row := b.tab[r]
	inv := 1 / row[j]
	// Normalize the pivot row and collect its nonzero support. The
	// elimination loops touch only supported columns: on the scheduling
	// models the tableau runs ~20% dense, so this is the difference
	// between m·nTot and m·nnz work on the solver's hottest kernel.
	idx := b.pivIdx[:0]
	for k, v := range row {
		if v == 0 {
			continue
		}
		row[k] = v * inv
		idx = append(idx, int32(k))
	}
	b.pivIdx = idx
	if f := s.d[j]; f != 0 {
		d := s.d
		for _, k := range idx {
			d[k] -= f * row[k]
		}
	}
	// The loop reaches w and the rows through s and b rather than through
	// local slice headers: with those extra values live, the compiler
	// spills a register inside the inner loop, which cost ~15% of a warm
	// re-solve on the paper's models.
	for i := 0; i < s.m; i++ {
		if i == r {
			continue
		}
		f := s.w[i]
		if f == 0 {
			continue
		}
		ti := b.tab[i]
		for _, k := range idx {
			ti[k] -= f * row[k]
		}
	}
}
