package lp

import "math"

// DeadlineStride exports the poll stride of the primal loop and the dual
// repair to the external tests.
const DeadlineStride = deadlineStride

// SolveBounded exports the from-scratch reference solve solveBounded to
// the external tests.
var SolveBounded = solveBounded

// Artificials reports how many artificial columns the resolver's last cold
// build laid out.
func (r *Resolver) Artificials() int {
	n := 0
	for _, a := range r.s.isArt {
		if a {
			n++
		}
	}
	return n
}

// WatchPricing makes every sparse pivot, once it has updated the reduced
// costs, price every column from scratch (resetCosts) and pass report the
// largest gap between a maintained reduced cost and its from-scratch
// value, relative to the larger of 1 and that value; the maintained costs
// are then put back, so the check leaves the pivot path alone. stop
// removes the check. Solves that run while the check is installed must
// all belong to the caller.
func WatchPricing(report func(gap float64)) (stop func()) {
	var kept []float64
	pivotCheck = func(b *sparseBasis) {
		d := b.s.d
		kept = append(kept[:0], d...)
		b.resetCosts()
		worst := 0.0
		for j, want := range d {
			worst = max(worst, math.Abs(kept[j]-want)/max(1, math.Abs(want)))
		}
		copy(d, kept)
		report(worst)
	}
	return func() { pivotCheck = nil }
}
