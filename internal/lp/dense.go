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

// build lays out the tableau of the start basis (startBasis): each row in
// ≤-normalized equality form, with its slack and its artificial. Every
// basic column then has coefficient +1 in its own row alone, so the
// tableau is B⁻¹A from the start.
//
// startBasis has fixed the artificial count, and with it every row's
// final width, before any row is laid out: each row is written once, at
// its final width, into one block. The block is the storage the previous
// build left, grown only when a build needs more artificial columns than
// any build before it, so a Resolver's cold re-solves rebuild the tableau
// in place.
func (b *denseBasis) build() {
	s := b.s
	p := s.p
	v := p.columns()
	s.startBasis(v)
	total := s.nTot

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

	// An artificial starts at |residual|. Where the residual is negative
	// its coefficient is −1, and the row is negated so that the basic
	// coefficient reads +1.
	for i, row := range b.tab {
		bv := s.basicVar[i]
		if !s.isArt[bv] {
			continue
		}
		row[bv] = 1
		if s.xB[i] < 0 {
			row[bv] = -1
			for j := range row {
				row[j] = -row[j]
			}
		}
		s.xB[i] = math.Abs(s.xB[i])
	}
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
