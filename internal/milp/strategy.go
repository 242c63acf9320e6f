package milp

import (
	"container/heap"
	"math"

	"sos/internal/lp"
)

// BranchRule selects which fractional integer column a node branches on.
type BranchRule int

// Branching rules.
const (
	// BranchMostFractional picks the column farthest from integrality
	// (the classic default).
	BranchMostFractional BranchRule = iota
	// BranchFirstIndex picks the lowest-indexed fractional column.
	// Model builders that order important decisions first (SOS orders σ
	// by subtask) get a structured dive.
	BranchFirstIndex
	// BranchPseudoCost picks the column with the best observed
	// objective-degradation history (product rule), falling back to
	// most-fractional until history accumulates.
	BranchPseudoCost
)

// NodeOrder selects the search strategy.
type NodeOrder int

// Node orders.
const (
	// DepthFirst dives to integer solutions quickly with minimal memory.
	DepthFirst NodeOrder = iota
	// BestFirst always expands the node with the smallest LP bound,
	// minimizing the number of nodes at the price of memory.
	BestFirst
)

// pseudoCost tracks per-column average objective degradation per unit of
// fractionality, separately for down and up branches.
type pseudoCost struct {
	downSum, upSum map[lp.ColID]float64
	downCnt, upCnt map[lp.ColID]int
}

func newPseudoCost() *pseudoCost {
	return &pseudoCost{
		downSum: map[lp.ColID]float64{}, upSum: map[lp.ColID]float64{},
		downCnt: map[lp.ColID]int{}, upCnt: map[lp.ColID]int{},
	}
}

// observe records that branching col in the given direction degraded the
// LP bound by delta per unit fraction.
func (pc *pseudoCost) observe(col lp.ColID, up bool, perUnit float64) {
	if perUnit < 0 {
		perUnit = 0
	}
	if up {
		pc.upSum[col] += perUnit
		pc.upCnt[col]++
	} else {
		pc.downSum[col] += perUnit
		pc.downCnt[col]++
	}
}

// score rates col for branching given its fractional part f (product
// rule with epsilon smoothing).
func (pc *pseudoCost) score(col lp.ColID, f float64) float64 {
	const eps = 1e-6
	down := 1.0
	if c := pc.downCnt[col]; c > 0 {
		down = pc.downSum[col] / float64(c)
	}
	up := 1.0
	if c := pc.upCnt[col]; c > 0 {
		up = pc.upSum[col] / float64(c)
	}
	return math.Max(down*f, eps) * math.Max(up*(1-f), eps)
}

// chooseBranch picks the branching column for a node under the rule.
func (s *Solver) chooseBranch(rule BranchRule, pc *pseudoCost, x []float64, tol float64) lp.ColID {
	switch rule {
	case BranchFirstIndex:
		for _, c := range s.integer {
			if frac(x[c]) > tol {
				return c
			}
		}
		return -1
	case BranchPseudoCost:
		best, bestScore := lp.ColID(-1), -1.0
		for _, c := range s.integer {
			f := frac(x[c])
			if f <= tol {
				continue
			}
			if sc := pc.score(c, f); sc > bestScore {
				best, bestScore = c, sc
			}
		}
		return best
	default:
		return s.mostFractional(x, tol)
	}
}

func frac(v float64) float64 {
	return math.Abs(v - math.Round(v))
}

// nodeHeap is a best-bound priority queue of open nodes.
type nodeHeap []*node

func (h nodeHeap) Len() int            { return len(h) }
func (h nodeHeap) Less(i, j int) bool  { return h[i].bound < h[j].bound }
func (h nodeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *nodeHeap) Push(x interface{}) { *h = append(*h, x.(*node)) }
func (h *nodeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	nd := old[n-1]
	*h = old[:n-1]
	return nd
}

// frontier abstracts the open-node container over both search orders.
type frontier struct {
	order NodeOrder
	stack []*node
	heap  nodeHeap
}

func newFrontier(order NodeOrder) *frontier {
	f := &frontier{order: order}
	if order == BestFirst {
		heap.Init(&f.heap)
	}
	return f
}

func (f *frontier) push(n *node) {
	if f.order == BestFirst {
		heap.Push(&f.heap, n)
	} else {
		f.stack = append(f.stack, n)
	}
}

func (f *frontier) pop() *node {
	if f.order == BestFirst {
		if f.heap.Len() == 0 {
			return nil
		}
		return heap.Pop(&f.heap).(*node)
	}
	if len(f.stack) == 0 {
		return nil
	}
	n := f.stack[len(f.stack)-1]
	f.stack = f.stack[:len(f.stack)-1]
	return n
}

func (f *frontier) empty() bool {
	if f.order == BestFirst {
		return f.heap.Len() == 0
	}
	return len(f.stack) == 0
}
