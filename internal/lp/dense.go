package lp

import "math"

// denseBasis is the dense tableau kernel: it keeps B⁻¹A explicitly, one
// dense row per constraint, and updates the reduced costs inside its
// row-reduction pivot, so pricing costs nothing per iteration. Its work
// per pivot is rows × (nonzeros of the pivot row), which wins on
// Example 1's models (DESIGN.md §11.1).
type denseBasis struct {
	s      *simplex
	tab    [][]float64 // m × nTot, kept as B⁻¹A; rows are slices of block
	block  []float64   // the tableau's storage, reused by every build
	pivIdx []int32     // scratch: nonzero support of the current pivot row
}

// build assembles the equality-form tableau. Every row is normalized to
//
//	a·x + slack = b   (slack ∈ [0,∞) for ≤-normalized rows; none for =)
//
// with ≥ rows multiplied by −1 first. Structural nonbasics start at their
// lower bound; a slack whose implied value is feasible becomes basic,
// otherwise the row receives a basic artificial absorbing the residual.
//
// The residuals come first, from the problem's sparse column view, so the
// artificial count — and with it every row's final width — is known
// before any row is laid out: each row is written once, at its final
// width, into one block. The block is the storage the previous build
// left, grown only when a build needs more artificial columns than any
// build before it, so a Resolver's cold re-solves rebuild the tableau in
// place.
func (b *denseBasis) build() {
	s := b.s
	p := s.p
	v := p.columns()
	s.m, s.nStruct = v.m, v.n
	s.nTot = s.nStruct + v.nSlack // artificials appended below
	s.lb, s.ub = s.initBounds(v.nSlack)

	// Residual per row given every structural column at its lower bound
	// and the slacks at 0. Each row's terms are subtracted in column
	// order, the order a scan of its dense row takes.
	s.xB = resize(s.xB, s.m)
	for i := range p.rows {
		s.xB[i] = v.sign[i] * p.rows[i].Rhs
	}
	for j := 0; j < s.nStruct; j++ {
		ri, ax := v.col(j)
		for t, i := range ri {
			if a := ax[t]; a != 0 {
				s.xB[i] -= a * s.lb[j]
			}
		}
	}
	// A slack whose residual is feasible serves as the basic variable
	// directly; every other row needs an artificial.
	s.basicVar = resize(s.basicVar, s.m)
	nArt := 0
	for i, res := range s.xB {
		if sl := v.slackOf[i]; sl >= 0 && res >= 0 {
			s.basicVar[i] = s.nStruct + int(sl)
		} else {
			s.basicVar[i] = -1
			nArt++
		}
	}
	total := s.nTot + nArt

	// Dense rows in ≤-normalized equality form, at their final width.
	b.block = resize(b.block, s.m*total)
	b.tab = resize(b.tab, s.m)
	for i, r := range p.rows {
		row := b.block[i*total : (i+1)*total : (i+1)*total]
		sign := v.sign[i]
		for _, t := range r.Terms {
			row[t.Col] += sign * t.Coef
		}
		if sl := v.slackOf[i]; sl >= 0 {
			row[s.nStruct+int(sl)] = 1
		}
		b.tab[i] = row
	}

	// One artificial column per remaining row, in row order; its
	// coefficient's sign makes its starting value |residual| ≥ 0.
	s.isArt = resize(s.isArt, total)
	col := s.nTot
	for i, row := range b.tab {
		if s.basicVar[i] >= 0 {
			continue
		}
		s.isArt[col] = true
		s.lb = append(s.lb, 0)
		s.ub = append(s.ub, math.Inf(1))
		coef := 1.0
		if s.xB[i] < 0 {
			coef = -1
		}
		row[col] = coef
		s.basicVar[i] = col
		s.xB[i] = math.Abs(s.xB[i])
		col++
	}
	s.nTot = total

	// Scale rows so basic columns have coefficient +1 (artificials with
	// coefficient −1 were introduced only when residual < 0; scaling flips
	// the row so its basis entry is +1).
	for i, row := range b.tab {
		if row[s.basicVar[i]] < 0 {
			for j := range row {
				row[j] = -row[j]
			}
		}
	}
	// Every basic column (slack or artificial) appears in exactly one row,
	// so the basis is already the identity and the rows are B⁻¹A.
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
