package taskgraph

import "math"

// CriticalPath computes the length of the longest path through the graph
// when each subtask S_a costs dur(a) time and communication is free. This
// is the classic critical-path lower bound on makespan with unlimited
// processors (Fernandez & Bussell style).
func (g *Graph) CriticalPath(dur func(SubtaskID) float64) float64 {
	order, err := g.TopoOrder()
	if err != nil {
		return math.Inf(1)
	}
	finish := make([]float64, len(g.subtasks))
	longest := 0.0
	for _, v := range order {
		start := 0.0
		for _, aid := range g.in[v] {
			a := g.arcs[aid]
			// The data is available once f_A of the source has elapsed,
			// and is needed once f_R of v has elapsed, so with free
			// communication: start(v) >= avail - FR*dur(v).
			req := finish[a.Src] - (1-a.FA)*dur(a.Src) - a.FR*dur(v)
			if req > start {
				start = req
			}
		}
		finish[v] = start + dur(v)
		if finish[v] > longest {
			longest = finish[v]
		}
	}
	return longest
}

// SerialTime returns the sum of dur over all subtasks: the single-processor
// (uniprocessor) execution time ignoring local transfer delays.
func (g *Graph) SerialTime(dur func(SubtaskID) float64) float64 {
	total := 0.0
	for i := range g.subtasks {
		total += dur(SubtaskID(i))
	}
	return total
}

// Level returns, for every subtask, its depth measured in arcs from a
// source node (sources are level 0). Useful for layered rendering and for
// list-scheduler priorities.
func (g *Graph) Level() []int {
	order, err := g.TopoOrder()
	if err != nil {
		return make([]int, len(g.subtasks))
	}
	lvl := make([]int, len(g.subtasks))
	for _, v := range order {
		for _, aid := range g.in[v] {
			if l := lvl[g.arcs[aid].Src] + 1; l > lvl[v] {
				lvl[v] = l
			}
		}
	}
	return lvl
}

// BottomLevel computes, for each subtask, the longest dur-weighted path
// from that subtask to any sink, inclusive of the subtask itself. This is
// the standard "b-level" priority used by list schedulers.
func (g *Graph) BottomLevel(dur func(SubtaskID) float64) []float64 {
	order, _ := g.TopoOrder()
	bl := make([]float64, len(g.subtasks))
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		best := 0.0
		for _, aid := range g.out[v] {
			if b := bl[g.arcs[aid].Dst]; b > best {
				best = b
			}
		}
		bl[v] = best + dur(v)
	}
	return bl
}

// TransitiveReach reports whether there is a directed path from src to dst.
func (g *Graph) TransitiveReach(src, dst SubtaskID) bool {
	if src == dst {
		return true
	}
	seen := make([]bool, len(g.subtasks))
	stack := []SubtaskID{src}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if v == dst {
			return true
		}
		if seen[v] {
			continue
		}
		seen[v] = true
		for _, aid := range g.out[v] {
			stack = append(stack, g.arcs[aid].Dst)
		}
	}
	return false
}

// StrictlyOrdered reports whether execution of dst is forced to start at or
// after the completion of src by the dataflow alone: there is a path from
// src to dst every arc of which has f_A = 1 (data only at completion) and
// f_R = 0 (needed at start). With fractional f_A/f_R a dependent pair can
// still overlap in time, so it still needs processor-exclusion ordering
// variables when co-mapped.
func (g *Graph) StrictlyOrdered(src, dst SubtaskID) bool {
	if src == dst {
		return false
	}
	seen := make([]bool, len(g.subtasks))
	stack := []SubtaskID{src}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[v] {
			continue
		}
		seen[v] = true
		for _, aid := range g.out[v] {
			a := g.arcs[aid]
			if a.FA != 1 || a.FR != 0 {
				continue
			}
			if a.Dst == dst {
				return true
			}
			stack = append(stack, a.Dst)
		}
	}
	return false
}
