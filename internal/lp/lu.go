package lp

import "math"

// luFactor is a sparse LU factorization of a basis matrix B with partial
// pivoting on rows: P·B = L·U, built column-wise (Gilbert–Peierls
// left-looking factorization) and also kept row-wise. L has an implicit
// unit diagonal; U's diagonal is kept in udiag. perm/pinv map permuted
// positions to original rows and back. FTRAN runs over the columns and
// BTRAN over the rows, both in axpy form, so each skips the zeros of its
// right-hand side: the unit-row BTRANs of the simplex's pivot rows touch
// only a handful of entries. The factor plus a product-form eta file
// (etaCol) gives the revised simplex its FTRAN/BTRAN kernels.
type luFactor struct {
	n int

	lptr []int32 // n+1 offsets into lri/lx (strictly-below-diagonal entries)
	lri  []int32 // permuted row indices, > column index after finalize
	lx   []float64

	uptr  []int32 // n+1 offsets into uri/ux (strictly-above-diagonal entries)
	uri   []int32 // permuted row indices, < column index
	ux    []float64
	udiag []float64

	// Row-wise copies of L and U for BTRAN: row k's entries sit at
	// [lrp[k], lrp[k+1]) with their column indices (< k for L, > k for U).
	lrp, lcj []int32
	lrx      []float64
	urp, ucj []int32
	urx      []float64

	perm, pinv []int32 // perm[k] = original row at permuted position k

	// Factorization workspaces, reused across refactorizations.
	x       []float64
	pattern []int32 // DFS output: pattern of the current column
	stack   []int32 // DFS vertex stack (original row indices)
	pstack  []int32 // DFS per-level position within an L column
	visited []int32 // DFS mark, stamped with the current column+1
}

// luSingularTol is the smallest pivot magnitude accepted during
// factorization; a column with no larger candidate makes the basis
// numerically singular.
const luSingularTol = 1e-11

// factorize computes PB = LU for the m×m basis whose k-th column is
// returned by col. It reports false when the basis is singular (the
// caller falls back to rebuilding the solve from scratch).
func (f *luFactor) factorize(m int, col func(k int) ([]int32, []float64)) bool {
	f.n = m
	f.lptr = append(f.lptr[:0], 0)
	f.uptr = append(f.uptr[:0], 0)
	f.lri, f.lx = f.lri[:0], f.lx[:0]
	f.uri, f.ux = f.uri[:0], f.ux[:0]
	f.udiag = append(f.udiag[:0], make([]float64, m)...)
	if cap(f.x) < m {
		f.x = make([]float64, m)
		f.pattern = make([]int32, m)
		f.stack = make([]int32, m)
		f.pstack = make([]int32, m)
		f.visited = make([]int32, m)
		f.perm = make([]int32, m)
		f.pinv = make([]int32, m)
	}
	f.x = f.x[:m]
	f.pattern = f.pattern[:m]
	f.stack = f.stack[:m]
	f.pstack = f.pstack[:m]
	f.visited = f.visited[:m]
	f.perm = f.perm[:m]
	f.pinv = f.pinv[:m]
	for i := 0; i < m; i++ {
		f.visited[i] = 0
		f.pinv[i] = -1
		f.x[i] = 0
	}

	for k := 0; k < m; k++ {
		bi, bx := col(k)
		top := f.reach(bi, int32(k+1))
		// Numeric sparse triangular solve x = L\b over the reach, in the
		// topological order the DFS produced. L entries here still carry
		// original row indices; a row is "pivotal" once pinv is set.
		for _, i := range bi {
			f.x[i] = 0
		}
		for p := top; p < m; p++ {
			f.x[f.pattern[p]] = 0
		}
		for t, i := range bi {
			f.x[i] = bx[t]
		}
		for p := top; p < m; p++ {
			j := f.pattern[p]
			J := f.pinv[j]
			if J < 0 {
				continue
			}
			xj := f.x[j]
			if xj == 0 {
				continue
			}
			for q := f.lptr[J]; q < f.lptr[J+1]; q++ {
				f.x[f.lri[q]] -= f.lx[q] * xj
			}
		}
		// Partial pivoting: largest magnitude among not-yet-pivotal rows.
		ipiv, pmax := int32(-1), 0.0
		for p := top; p < m; p++ {
			i := f.pattern[p]
			if f.pinv[i] >= 0 {
				continue
			}
			if a := math.Abs(f.x[i]); a > pmax {
				ipiv, pmax = i, a
			}
		}
		if ipiv < 0 || pmax < luSingularTol {
			return false
		}
		pivVal := f.x[ipiv]
		f.udiag[k] = pivVal
		f.pinv[ipiv] = int32(k)
		for p := top; p < m; p++ {
			i := f.pattern[p]
			v := f.x[i]
			f.x[i] = 0
			if v == 0 || i == ipiv {
				continue
			}
			if J := f.pinv[i]; J >= 0 && J < int32(k) {
				f.uri = append(f.uri, J)
				f.ux = append(f.ux, v)
			} else if J < 0 {
				f.lri = append(f.lri, i) // original index; remapped below
				f.lx = append(f.lx, v/pivVal)
			}
		}
		f.lptr = append(f.lptr, int32(len(f.lri)))
		f.uptr = append(f.uptr, int32(len(f.uri)))
	}
	// Finalize: map L's original row indices to permuted positions.
	for t := range f.lri {
		f.lri[t] = f.pinv[f.lri[t]]
	}
	for i := 0; i < m; i++ {
		f.perm[f.pinv[i]] = int32(i)
	}
	f.lrp, f.lcj, f.lrx = transpose(m, f.lptr, f.lri, f.lx, f.lrp, f.lcj, f.lrx)
	f.urp, f.ucj, f.urx = transpose(m, f.uptr, f.uri, f.ux, f.urp, f.ucj, f.urx)
	return true
}

// transpose writes the row-wise form of the compressed-column matrix
// (ptr, ind, val), whose row indices lie in [0, m), into tp, ti and tv,
// reusing their storage, and returns them. Each row's entries keep
// column order.
func transpose(m int, ptr, ind []int32, val []float64, tp, ti []int32, tv []float64) ([]int32, []int32, []float64) {
	tp = resize(tp, m+1)
	ti = resize(ti, len(ind))
	tv = resize(tv, len(ind))
	for _, i := range ind {
		tp[i+1]++
	}
	for i := 0; i < m; i++ {
		tp[i+1] += tp[i]
	}
	// Fill with tp[i] as row i's cursor; afterwards it holds row i's end,
	// the start of row i+1, and one shift restores the offsets.
	for j := 0; j+1 < len(ptr); j++ {
		for p := ptr[j]; p < ptr[j+1]; p++ {
			i := ind[p]
			q := tp[i]
			ti[q], tv[q] = int32(j), val[p]
			tp[i] = q + 1
		}
	}
	copy(tp[1:], tp[:m])
	tp[0] = 0
	return tp, ti, tv
}

// reach computes the pattern of L\b by depth-first search over the graph
// of already-built L columns, writing the vertices (original row indices)
// into pattern[top..n-1] in topological order and returning top.
func (f *luFactor) reach(bi []int32, stamp int32) int {
	top := f.n
	for _, i := range bi {
		if f.visited[i] == stamp {
			continue
		}
		// Iterative DFS from i.
		head := 0
		f.stack[0] = i
		f.visited[i] = stamp
		J := f.pinv[i]
		if J < 0 {
			f.pstack[0] = 0
		} else {
			f.pstack[0] = f.lptr[J]
		}
		for head >= 0 {
			j := f.stack[head]
			J = f.pinv[j]
			end := int32(0)
			if J >= 0 {
				end = f.lptr[J+1]
			}
			descended := false
			for p := f.pstack[head]; p < end; p++ {
				child := f.lri[p]
				if f.visited[child] == stamp {
					continue
				}
				f.pstack[head] = p + 1
				head++
				f.stack[head] = child
				f.visited[child] = stamp
				if cJ := f.pinv[child]; cJ < 0 {
					f.pstack[head] = 0
				} else {
					f.pstack[head] = f.lptr[cJ]
				}
				descended = true
				break
			}
			if descended {
				continue
			}
			head--
			top--
			f.pattern[top] = j
		}
	}
	return top
}

// ftran solves B·x = b in place: x arrives holding b (original row
// indexing) and leaves holding the basis-position values.
func (f *luFactor) ftran(x, scratch []float64) {
	n := f.n
	t := scratch[:n]
	for k := 0; k < n; k++ {
		t[k] = x[f.perm[k]]
	}
	// L forward solve (unit diagonal).
	for k := 0; k < n; k++ {
		v := t[k]
		if v == 0 {
			continue
		}
		for p := f.lptr[k]; p < f.lptr[k+1]; p++ {
			t[f.lri[p]] -= f.lx[p] * v
		}
	}
	// U backward solve.
	for k := n - 1; k >= 0; k-- {
		v := t[k] / f.udiag[k]
		t[k] = v
		if v == 0 {
			continue
		}
		for p := f.uptr[k]; p < f.uptr[k+1]; p++ {
			t[f.uri[p]] -= f.ux[p] * v
		}
	}
	copy(x[:n], t)
}

// btran solves Bᵀ·y = c in place: y arrives holding c (basis-position
// indexing) and leaves holding the dual values indexed by original row.
// Both triangular solves run in axpy form over the row-wise factor: once
// an entry is final its row is subtracted from the entries still to come,
// and a zero entry costs one test.
func (f *luFactor) btran(y, scratch []float64) {
	n := f.n
	t := scratch[:n]
	copy(t, y[:n])
	// Uᵀ forward solve: row k of U holds column k of Uᵀ below the diagonal.
	for k := 0; k < n; k++ {
		v := t[k]
		if v == 0 {
			continue
		}
		v /= f.udiag[k]
		t[k] = v
		for p := f.urp[k]; p < f.urp[k+1]; p++ {
			t[f.ucj[p]] -= f.urx[p] * v
		}
	}
	// Lᵀ backward solve (unit diagonal): row k of L holds column k of Lᵀ
	// above the diagonal.
	for k := n - 1; k >= 0; k-- {
		v := t[k]
		if v == 0 {
			continue
		}
		for p := f.lrp[k]; p < f.lrp[k+1]; p++ {
			t[f.lcj[p]] -= f.lrx[p] * v
		}
	}
	for k := 0; k < n; k++ {
		y[f.perm[k]] = t[k]
	}
}

// etaCol is one product-form update of the basis: after column q with
// FTRAN image w = B⁻¹a_q enters at basis position r, the new basis is
// B·E where E is the identity with column r replaced by w. Solving with E
// costs one division plus the column's nonzeros.
type etaCol struct {
	r   int32
	pr  float64 // w[r], the pivot element
	ind []int32 // nonzero positions of w, excluding r
	val []float64
}

// etaDropTol drops near-zero entries when capturing an eta column; the
// periodic refactorization (which recomputes xB from scratch) bounds the
// drift this introduces.
const etaDropTol = 1e-13

// captureEta builds an eta column from the dense FTRAN image w.
func captureEta(r int, w []float64) etaCol {
	e := etaCol{r: int32(r), pr: w[r]}
	for i, v := range w {
		if i == r || math.Abs(v) <= etaDropTol {
			continue
		}
		e.ind = append(e.ind, int32(i))
		e.val = append(e.val, v)
	}
	return e
}

// ftranEtas applies the eta file to x after the base-factor FTRAN
// (oldest update first).
func ftranEtas(etas []etaCol, x []float64) {
	for k := range etas {
		e := &etas[k]
		xr := x[e.r]
		if xr == 0 {
			continue
		}
		xr /= e.pr
		for t, i := range e.ind {
			x[i] -= e.val[t] * xr
		}
		x[e.r] = xr
	}
}

// btranEtas applies the transposed eta file to y before the base-factor
// BTRAN (newest update first).
func btranEtas(etas []etaCol, y []float64) {
	for k := len(etas) - 1; k >= 0; k-- {
		e := &etas[k]
		s := y[e.r]
		for t, i := range e.ind {
			s -= e.val[t] * y[i]
		}
		y[e.r] = s / e.pr
	}
}
