package lp

// DeadlineStride exports the poll stride of the primal loop and the dual
// repair to the external tests.
const DeadlineStride = deadlineStride

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
