package lp

import (
	"math/rand"
	"testing"
)

// FuzzKernelsAgree builds a random LP of at most 8 columns and 8 rows
// (randomLP, feasible by construction) with the columns fixMask selects
// fixed at their lower bounds, and walks a resolver through a random
// branching sequence on it under each of the dense and sparse kernels,
// with presolve off and on. The walk fixes columns at 0 or 1 and releases
// them (mutateBounds), and branches only on columns whose box holds both
// values: a resolver's overrides may only tighten the problem's bounds,
// since presolve's reductions hold only under tighter boxes. Every
// configuration replays the same walk, and each of its solves must agree
// with a dense cold solve of the same bounds on status and, when optimal,
// on the objective within 1e-6 relative, and must be feasible
// (driveResolver).
func FuzzKernelsAgree(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(3), uint8(0))
	f.Add(int64(2), uint8(7), uint8(7), uint8(0x21))
	f.Add(int64(3), uint8(5), uint8(6), uint8(0x0f))
	f.Add(int64(4), uint8(1), uint8(7), uint8(0x02))
	f.Fuzz(func(t *testing.T, seed int64, n, m, fixMask uint8) {
		cols, rows := 1+int(n)%8, 1+int(m)%8
		p, _ := randomLP(rand.New(rand.NewSource(seed)), cols, rows)
		var bins []ColID
		for j := 0; j < cols; j++ {
			c := p.Col(ColID(j))
			switch {
			case fixMask&(1<<j) != 0:
				p.SetBounds(ColID(j), c.Lb, c.Lb)
			case c.Lb <= 0 && c.Ub >= 1:
				bins = append(bins, ColID(j))
			}
		}
		if len(bins) == 0 {
			return // nothing to branch on
		}
		for _, opts := range []Options{
			{Kernel: KernelDense},
			{Kernel: KernelSparse},
			{Kernel: KernelDense, Presolve: true},
			{Kernel: KernelSparse, Presolve: true},
		} {
			driveResolver(t, rand.New(rand.NewSource(seed)), p, bins, &opts, int(seed))
		}
	})
}
