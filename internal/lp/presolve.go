package lp

import (
	"math"

	"sos/internal/telemetry"
)

// presolveInfo is a reduction of a Problem plus the postsolve map that
// restores full solutions. The reductions — fixed-variable substitution,
// empty-row checks, singleton-row-to-bound conversion (bound tightening),
// and activity-bound redundant-row removal — all remain valid when the
// caller later tightens column bounds further (a branch-and-bound node's
// overrides), which is what lets a Resolver presolve once at construction
// and translate per-node bounds instead of re-reducing at every node.
type presolveInfo struct {
	orig *Problem

	// The problem's bounds, tightened by the reductions; indexed by
	// original column.
	lb, ub []float64

	colMap []int32   // original column → reduced column, -1 if eliminated
	fixVal []float64 // value of eliminated columns
	rowCut []bool    // original rows dropped
	objOff float64   // objective contribution of eliminated columns

	reduced    *Problem
	infeasible bool

	rowsCut, colsCut int
}

// presolveFeasTol separates genuine constraint contradictions from
// round-off when deciding empty-row feasibility and crossed bounds.
const presolveFeasTol = 1e-9

// runPresolve reduces p under its own bounds. The returned info is
// self-contained: reduced is nil only when infeasible was detected before
// construction.
func runPresolve(p *Problem) *presolveInfo {
	n, m := len(p.cols), len(p.rows)
	pr := &presolveInfo{
		orig:   p,
		lb:     make([]float64, n),
		ub:     make([]float64, n),
		colMap: make([]int32, n),
		fixVal: make([]float64, n),
		rowCut: make([]bool, m),
	}
	for j, c := range p.cols {
		pr.lb[j], pr.ub[j] = c.Lb, c.Ub
	}
	fixed := make([]bool, n)

	tol := func(b float64) float64 { return presolveFeasTol * (1 + math.Abs(b)) }

	// Reduction fixpoint: each pass fixes newly degenerate columns, then
	// rescans live rows for empty/singleton/redundant structure. Capped
	// passes keep pathological chains from looping.
	for pass := 0; pass < 10; pass++ {
		changed := false
		for j := 0; j < n; j++ {
			if fixed[j] {
				continue
			}
			if pr.lb[j] > pr.ub[j]+tol(pr.lb[j]) {
				pr.infeasible = true
				return pr
			}
			if pr.ub[j]-pr.lb[j] <= 1e-12 {
				fixed[j] = true
				pr.fixVal[j] = pr.lb[j]
				changed = true
			}
		}
		for i := 0; i < m; i++ {
			if pr.rowCut[i] {
				continue
			}
			r := &p.rows[i]
			b := r.Rhs
			nLive := 0
			lastCol, lastCoef := ColID(-1), 0.0
			minAct, maxAct := 0.0, 0.0
			minInf, maxInf := 0, 0 // unbounded contributions
			for _, t := range r.Terms {
				if fixed[t.Col] {
					b -= t.Coef * pr.fixVal[t.Col]
					continue
				}
				nLive++
				lastCol, lastCoef = t.Col, t.Coef
				lo, hi := pr.lb[t.Col], pr.ub[t.Col]
				if t.Coef > 0 {
					minAct += t.Coef * lo
					if math.IsInf(hi, 1) {
						maxInf++
					} else {
						maxAct += t.Coef * hi
					}
				} else {
					if math.IsInf(hi, 1) {
						minInf++
					} else {
						minAct += t.Coef * hi
					}
					maxAct += t.Coef * lo
				}
			}
			switch {
			case nLive == 0:
				ok := true
				switch r.Sense {
				case Le:
					ok = 0 <= b+tol(b)
				case Ge:
					ok = 0 >= b-tol(b)
				default:
					ok = math.Abs(b) <= tol(b)
				}
				if !ok {
					pr.infeasible = true
					return pr
				}
				pr.rowCut[i] = true
				changed = true
			case nLive == 1 && math.Abs(lastCoef) > 1e-12:
				// Singleton row: fold into the column's bounds.
				v := b / lastCoef
				sense := r.Sense
				if lastCoef < 0 && sense != Eq {
					if sense == Le {
						sense = Ge
					} else {
						sense = Le
					}
				}
				j := lastCol
				switch sense {
				case Le:
					if v < pr.ub[j] {
						pr.ub[j] = v
					}
				case Ge:
					if v > pr.lb[j] {
						pr.lb[j] = v
					}
				default:
					if v < pr.ub[j] {
						pr.ub[j] = v
					}
					if v > pr.lb[j] {
						pr.lb[j] = v
					}
				}
				if pr.lb[j] > pr.ub[j] {
					if pr.lb[j] > pr.ub[j]+tol(pr.lb[j]) {
						pr.infeasible = true
						return pr
					}
					pr.lb[j] = pr.ub[j]
				}
				pr.rowCut[i] = true
				changed = true
			default:
				// Activity-bound redundancy / infeasibility. Infinite
				// contributions leave the corresponding side unknown.
				switch r.Sense {
				case Le:
					if minInf == 0 && minAct > b+tol(b) {
						pr.infeasible = true
						return pr
					}
					if maxInf == 0 && maxAct <= b {
						pr.rowCut[i] = true
						changed = true
					}
				case Ge:
					if maxInf == 0 && maxAct < b-tol(b) {
						pr.infeasible = true
						return pr
					}
					if minInf == 0 && minAct >= b {
						pr.rowCut[i] = true
						changed = true
					}
				default:
					if (minInf == 0 && minAct > b+tol(b)) ||
						(maxInf == 0 && maxAct < b-tol(b)) {
						pr.infeasible = true
						return pr
					}
				}
			}
		}
		if !changed {
			break
		}
	}

	// Build the reduced problem: live columns with tightened bounds, live
	// rows with fixed contributions folded into the rhs.
	red := NewProblem(p.Name + "~pre")
	for j := 0; j < n; j++ {
		if fixed[j] {
			pr.colMap[j] = -1
			pr.objOff += p.cols[j].Obj * pr.fixVal[j]
			pr.colsCut++
			continue
		}
		pr.colMap[j] = int32(red.AddCol(p.cols[j].Name, pr.lb[j], pr.ub[j], p.cols[j].Obj))
	}
	terms := make([]Term, 0, 16)
	for i := 0; i < m; i++ {
		if pr.rowCut[i] {
			pr.rowsCut++
			continue
		}
		r := &p.rows[i]
		b := r.Rhs
		terms = terms[:0]
		for _, t := range r.Terms {
			if j := pr.colMap[t.Col]; j >= 0 {
				terms = append(terms, Term{Col: ColID(j), Coef: t.Coef})
			} else {
				b -= t.Coef * pr.fixVal[t.Col]
			}
		}
		red.AddRow(r.Name, r.Sense, b, terms...)
	}
	pr.reduced = red
	return pr
}

// translate maps per-solve bound overrides on the original columns into
// overrides on the reduced columns, reusing dst. It reports a conflict
// (immediate infeasibility) when an override contradicts an eliminated
// column's fixed value or empties a tightened interval. Overrides are
// assumed to tighten the base bounds (the branch-and-bound invariant);
// intersecting with the presolved bounds keeps the reductions valid.
func (pr *presolveInfo) translate(ov map[ColID][2]float64, dst map[ColID][2]float64) (map[ColID][2]float64, bool) {
	if dst == nil {
		dst = make(map[ColID][2]float64, len(ov))
	} else {
		for c := range dst {
			delete(dst, c)
		}
	}
	for c, b := range ov {
		j := pr.colMap[c]
		if j < 0 {
			v := pr.fixVal[c]
			if v < b[0]-presolveFeasTol || v > b[1]+presolveFeasTol {
				return dst, true
			}
			continue
		}
		lo, hi := math.Max(b[0], pr.lb[c]), math.Min(b[1], pr.ub[c])
		if lo > hi+presolveFeasTol {
			return dst, true
		}
		if lo > hi {
			hi = lo
		}
		dst[ColID(j)] = [2]float64{lo, hi}
	}
	return dst, false
}

// expand maps a reduced-space solution back to the full column space:
// eliminated columns take their fixed values with reduced cost 0 (the
// conservative choice — a zero reduced cost never triggers reduced-cost
// fixing), kept columns copy through.
func (pr *presolveInfo) expand(in *Solution, out *Solution) {
	n := len(pr.colMap)
	out.Status = in.Status
	out.Iters = in.Iters
	out.Obj = in.Obj + pr.objOff
	if cap(out.X) < n {
		out.X = make([]float64, n)
	}
	out.X = out.X[:n]
	// Both kernels attach reduced costs exactly on Optimal; keying off the
	// slice would drop them when presolve eliminated every column.
	withRC := in.Status == Optimal
	if withRC {
		if cap(out.ReducedCosts) < n {
			out.ReducedCosts = make([]float64, n)
		}
		out.ReducedCosts = out.ReducedCosts[:n]
	} else {
		out.ReducedCosts = nil
	}
	for c := 0; c < n; c++ {
		if j := pr.colMap[c]; j >= 0 {
			out.X[c] = in.X[j]
			if withRC {
				out.ReducedCosts[c] = in.ReducedCosts[j]
			}
		} else {
			out.X[c] = pr.fixVal[c]
			if withRC {
				out.ReducedCosts[c] = 0
			}
		}
	}
}

// infeasibleSolution fills out with a canned Infeasible result whose X
// carries the best-known resting values (fixed values, else the effective
// lower bound) so downstream consumers that read X defensively see finite
// numbers.
func (pr *presolveInfo) infeasibleSolution(out *Solution) {
	n := len(pr.colMap)
	out.Status = Infeasible
	out.Obj = 0
	out.Iters = 0
	out.ReducedCosts = nil
	if cap(out.X) < n {
		out.X = make([]float64, n)
	}
	out.X = out.X[:n]
	for c := 0; c < n; c++ {
		if pr.colMap[c] < 0 {
			out.X[c] = pr.fixVal[c]
		} else {
			out.X[c] = pr.lb[c]
		}
	}
}

// emitTelemetry records the reduction counters once per presolve.
func (pr *presolveInfo) emitTelemetry(tel *telemetry.Collector) {
	if tel == nil {
		return
	}
	tel.Add(telemetry.CtrLPPresolveRows, int64(pr.rowsCut))
	tel.Add(telemetry.CtrLPPresolveCols, int64(pr.colsCut))
	tel.Emit(telemetry.EvLPPresolve, float64(pr.rowsCut+pr.colsCut), "reduce")
}
