package lp

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
