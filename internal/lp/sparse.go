package lp

import "sos/internal/telemetry"

// sparseBasis is the sparse revised simplex kernel: the basis inverse is
// represented as a sparse LU factorization plus a product-form eta file
// instead of an explicitly maintained B⁻¹A. Column images cost one FTRAN;
// row images cost one BTRAN of a unit vector plus a pass over the rows of
// A where that image is nonzero. Like the dense tableau, the kernel keeps
// the reduced costs current inside pivot, from the pivot row, and prices
// every column from scratch only when the phase costs change or the basis
// is refactorized. Work per iteration scales with the problem's nonzeros
// and the factor's fill, not with m×n, which is what lets cold solves
// close 100+-subtask models.
type sparseBasis struct {
	s *simplex

	// CSC over all internal columns: structural (sign-normalized), slacks,
	// then artificials, in the driver's column layout.
	ap []int32
	ai []int32
	ax []float64

	// The same matrix by rows: row i's entries sit at [rp[i], rp[i+1])
	// with their internal column indices in rj.
	rp []int32
	rj []int32
	rx []float64

	rhs []float64 // ≤-normalized right-hand side

	lu   luFactor
	etas []etaCol

	// Dense work vectors.
	y     []float64 // duals (BTRAN image)
	rho   []float64 // BTRAN image of a unit row
	alpha []float64 // row image over all internal columns
	t1    []float64 // triangular-solve scratch
	t2    []float64 // rhs/aggregation scratch

	// The columns the last row image wrote, each listed once (seen marks
	// them), and the basis position of that image: -1 once a pivot or a
	// build has made it stale.
	touched []int32
	seen    []bool
	rowAt   int
}

// spxRefactorEvery bounds the eta file: after this many basis changes the
// factorization is rebuilt and xB recomputed from scratch, capping both
// the per-solve drift (resolve.go's refactorEvery idea applied inside one
// solve) and the FTRAN/BTRAN cost of a long eta chain.
const spxRefactorEvery = 64

// build lays out the internal columns of the start basis (startBasis) in
// the driver's layout: the structural columns copied from the problem's
// column view, then a unit column per slack and per artificial.
func (b *sparseBasis) build() {
	s := b.s
	p := s.p
	v := p.columns()
	s.startBasis(v)

	b.rhs = make([]float64, s.m)
	for i := range p.rows {
		b.rhs[i] = v.sign[i] * p.rows[i].Rhs
	}

	nnz := len(v.ax) + s.nTot - s.nStruct
	b.ap = make([]int32, 0, s.nTot+1)
	b.ai = make([]int32, 0, nnz)
	b.ax = make([]float64, 0, nnz)
	b.ap = append(b.ap, 0)
	b.ai = append(b.ai, v.ri...)
	b.ax = append(b.ax, v.ax...)
	for j := 0; j < s.nStruct; j++ {
		b.ap = append(b.ap, v.ptr[j+1])
	}
	for i := 0; i < s.m; i++ {
		if v.slackOf[i] < 0 {
			continue
		}
		b.ai = append(b.ai, int32(i))
		b.ax = append(b.ax, 1)
		b.ap = append(b.ap, int32(len(b.ai)))
	}
	// Artificials are numbered in row order, so one pass over the rows
	// appends them in column order.
	for i, bv := range s.basicVar {
		if !s.isArt[bv] {
			continue
		}
		coef := 1.0
		if s.xB[i] < 0 {
			coef = -1
		}
		b.ai = append(b.ai, int32(i))
		b.ax = append(b.ax, coef)
		b.ap = append(b.ap, int32(len(b.ai)))
	}

	b.rp, b.rj, b.rx = transpose(s.m, b.ap, b.ai, b.ax, b.rp, b.rj, b.rx)

	b.etas = b.etas[:0] // a rebuilt basis starts a new factorization
	b.y = make([]float64, s.m)
	b.rho = make([]float64, s.m)
	b.alpha = make([]float64, s.nTot)
	b.t1 = make([]float64, s.m)
	b.t2 = make([]float64, s.m)
	b.touched = b.touched[:0]
	b.seen = resize(b.seen, s.nTot)
	b.rowAt = -1
}

// colOf returns internal column j's sparse entries.
func (b *sparseBasis) colOf(j int) ([]int32, []float64) {
	lo, hi := b.ap[j], b.ap[j+1]
	return b.ai[lo:hi], b.ax[lo:hi]
}

// refactor rebuilds the LU factor from the current basis, clears the eta
// file, and recomputes xB = B⁻¹(b − N·x_N) and the reduced costs from
// scratch (killing the drift the incremental updates accumulate). A
// singular basis marks the driver broken and reports false.
func (b *sparseBasis) refactor() bool {
	s := b.s
	pivots := len(b.etas)
	ok := b.lu.factorize(s.m, func(k int) ([]int32, []float64) {
		return b.colOf(s.basicVar[k])
	})
	if !ok {
		s.broken = true
		return false
	}
	b.etas = b.etas[:0]
	r := b.t2
	copy(r, b.rhs)
	for j := 0; j < s.nTot; j++ {
		if s.status[j] == basic {
			continue
		}
		if x := s.value(j); x != 0 {
			ri, ax := b.colOf(j)
			for t, i := range ri {
				r[i] -= ax[t] * x
			}
		}
	}
	copy(s.xB, r)
	b.lu.ftran(s.xB, b.t1)
	b.resetCosts()
	s.recomputeObj()
	if tel := s.opts.Telemetry; tel != nil {
		tel.Inc(telemetry.CtrLPRefactors)
		tel.Emit(telemetry.EvLPRefactor, float64(pivots), "")
	}
	return true
}

// btran computes y = B⁻ᵀ·c into out, where c is given per basis position
// in out.
func (b *sparseBasis) btran(out []float64) {
	btranEtas(b.etas, out)
	b.lu.btran(out, b.t1)
}

// resetCosts prices every column from scratch: d = c − yᵀA with
// y = B⁻ᵀc_B, one BTRAN plus one pass over the nonzeros.
func (b *sparseBasis) resetCosts() {
	s := b.s
	for i := 0; i < s.m; i++ {
		b.y[i] = s.cost[s.basicVar[i]]
	}
	b.btran(b.y)
	for j := 0; j < s.nTot; j++ {
		if s.status[j] == basic {
			s.d[j] = 0
			continue
		}
		dj := s.cost[j]
		ri, ax := b.colOf(j)
		for t, i := range ri {
			dj -= b.y[i] * ax[t]
		}
		s.d[j] = dj
	}
}

// column computes w = B⁻¹·a_j with one FTRAN.
func (b *sparseBasis) column(j int) {
	w := b.s.w
	for i := range w {
		w[i] = 0
	}
	ri, ax := b.colOf(j)
	for t, i := range ri {
		w[i] = ax[t]
	}
	b.lu.ftran(w, b.t1)
	ftranEtas(b.etas, w)
}

// row computes e_iᵀB⁻¹A: one BTRAN for rho = B⁻ᵀe_i, then rho_k·A_k
// summed over the rows k where rho_k ≠ 0. It first zeroes the entries its
// previous call wrote, so every entry it returns is either computed or
// exactly 0; the callers' candidate scans read the whole slice.
func (b *sparseBasis) row(i int) []float64 {
	for _, j := range b.touched {
		b.alpha[j] = 0
		b.seen[j] = false
	}
	b.touched = b.touched[:0]
	rho := b.rho
	clear(rho)
	rho[i] = 1
	b.btran(rho)
	for k, rk := range rho {
		if rk == 0 {
			continue
		}
		for p := b.rp[k]; p < b.rp[k+1]; p++ {
			j := b.rj[p]
			if !b.seen[j] {
				b.seen[j] = true
				b.touched = append(b.touched, j)
			}
			b.alpha[j] += rk * b.rx[p]
		}
	}
	b.rowAt = i
	return b.alpha
}

// pivot updates the reduced costs from the pivot row, appends the eta
// column of the entering image w at position r, and refactorizes when the
// eta file is full. With θ = d_j/w_r, every nonbasic column the row
// touches gets d_k −= θ·α_rk; the leaving column, whose α_rk is 1, gets
// −θ, and the entering column 0. The pivot row is the one the dual repair
// or retireArtificials has just computed when they pivot on it, and one
// more BTRAN otherwise.
func (b *sparseBasis) pivot(r, j int) {
	s := b.s
	if dj := s.d[j]; dj != 0 {
		alpha := b.alpha
		if b.rowAt != r {
			alpha = b.row(r)
		}
		theta := dj / s.w[r]
		for _, k := range b.touched {
			if s.status[k] != basic {
				s.d[k] -= theta * alpha[k]
			}
		}
	}
	s.d[j] = 0
	b.rowAt = -1
	b.etas = append(b.etas, captureEta(r, s.w))
	if len(b.etas) >= spxRefactorEvery {
		b.refactor()
	}
	if pivotCheck != nil {
		pivotCheck(b)
	}
}

// pivotCheck, when set, runs after every sparse pivot; the package's tests
// set it to compare the maintained reduced costs with a from-scratch
// pricing.
var pivotCheck func(b *sparseBasis)
