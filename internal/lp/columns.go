package lp

// colView is an immutable compressed-sparse-column snapshot of a Problem's
// structural coefficients in ≤-normalized form: every coefficient of a ≥
// row is negated, matching the equality-form convention both simplex
// kernels build (dense.go's dense rows and sparse.go's CSC columns).
// Once built it is shared by clones and concurrent solves; any structural
// mutation (AddCol/AddRow) drops the cache.
type colView struct {
	m, n int // rows, structural columns

	ptr []int32   // n+1 column offsets into ri/ax
	ri  []int32   // row index per entry
	ax  []float64 // sign-normalized coefficient per entry

	sign    []float64 // per row: -1 for Ge rows, +1 otherwise
	slackOf []int32   // per row: dense slack column slot (0..nSlack-1), -1 for Eq
	nSlack  int
}

// columns returns the problem's sparse column view, building it on first
// use. Solve is documented concurrent-safe, so the build races benignly:
// both goroutines construct identical views and one wins the Store.
func (p *Problem) columns() *colView {
	if v := p.colCache.Load(); v != nil {
		return v
	}
	v := buildColView(p)
	p.colCache.Store(v)
	return v
}

// PrecomputeColumns builds the sparse column view eagerly so later solves
// (and every clone, which shares the cache) skip the row-to-column
// transpose. The model builder calls this once per Build.
func (p *Problem) PrecomputeColumns() { p.columns() }

func buildColView(p *Problem) *colView {
	m, n := len(p.rows), len(p.cols)
	v := &colView{
		m:       m,
		n:       n,
		ptr:     make([]int32, n+1),
		sign:    make([]float64, m),
		slackOf: make([]int32, m),
	}
	nnz := 0
	for i := range p.rows {
		r := &p.rows[i]
		v.sign[i] = 1
		if r.Sense == Ge {
			v.sign[i] = -1
		}
		v.slackOf[i] = -1
		if r.Sense != Eq {
			v.slackOf[i] = int32(v.nSlack)
			v.nSlack++
		}
		nnz += len(r.Terms)
	}
	// Count per-column entries, then fill with a second pass. mergeTerms
	// guarantees each row references a column at most once.
	for i := range p.rows {
		for _, t := range p.rows[i].Terms {
			v.ptr[t.Col+1]++
		}
	}
	for j := 0; j < n; j++ {
		v.ptr[j+1] += v.ptr[j]
	}
	v.ri = make([]int32, nnz)
	v.ax = make([]float64, nnz)
	next := make([]int32, n)
	copy(next, v.ptr[:n])
	for i := range p.rows {
		s := v.sign[i]
		for _, t := range p.rows[i].Terms {
			k := next[t.Col]
			next[t.Col] = k + 1
			v.ri[k] = int32(i)
			v.ax[k] = s * t.Coef
		}
	}
	return v
}

// col returns the sign-normalized sparse entries of structural column j.
func (v *colView) col(j int) ([]int32, []float64) {
	lo, hi := v.ptr[j], v.ptr[j+1]
	return v.ri[lo:hi], v.ax[lo:hi]
}
