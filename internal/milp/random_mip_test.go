package milp

import (
	"math/rand"

	"sos/internal/lp"
)

// buildRandomMIP creates a random feasible 0/1 problem and returns it with
// its integer columns.
func buildRandomMIP(rng *rand.Rand, n, m int) (*lp.Problem, []lp.ColID) {
	p := lp.NewProblem("rmip")
	var cols []lp.ColID
	for j := 0; j < n; j++ {
		cols = append(cols, p.AddCol("", 0, 1, float64(rng.Intn(19)-9)))
	}
	for i := 0; i < m; i++ {
		terms := make([]lp.Term, 0, n)
		total := 0.0
		for j := 0; j < n; j++ {
			c := float64(rng.Intn(5) - 1)
			if c != 0 {
				terms = append(terms, lp.Term{Col: cols[j], Coef: c})
			}
			if c > 0 {
				total += c
			}
		}
		if len(terms) == 0 {
			continue
		}
		p.AddRow("", lp.Le, total*(0.4+rng.Float64()*0.4), terms...)
	}
	return p, cols
}

// addRandomGeRow appends a ≥ row over every column, with coefficients in
// 1..4 and a right-hand side between lo and lo+span of their sum. Unlike
// buildRandomMIP's ≤ rows it excludes x = 0, so root relaxations turn
// fractional and some problems have no feasible 0/1 vector.
func addRandomGeRow(rng *rand.Rand, p *lp.Problem, cols []lp.ColID, lo, span float64) {
	terms := make([]lp.Term, len(cols))
	total := 0.0
	for j, c := range cols {
		terms[j] = lp.Term{Col: c, Coef: float64(1 + rng.Intn(4))}
		total += terms[j].Coef
	}
	p.AddRow("ge", lp.Ge, total*(lo+rng.Float64()*span), terms...)
}
