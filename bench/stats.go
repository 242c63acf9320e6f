package main

import (
	"fmt"
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs by the rule of
// Python's statistics.quantiles(xs, n=4) (the "exclusive" method), so
// spreads computed here and by that function agree. A single value is
// its own quartiles.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	switch ld {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	const n = 4
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q(1), q(3)
}

// tail returns the highest percentile that has at least ten samples
// beyond it, and its value: with n samples, the (n-10)-th smallest, at
// percentile 100(n-10)/n. With twenty samples or fewer that percentile
// would not be above the median, so the maximum is returned as p100.
func tail(xs []float64) (pct, value float64) {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0, math.NaN()
	case n <= 20:
		return 100, s[n-1]
	}
	return 100 * float64(n-10) / float64(n), s[n-11]
}

// pctLabel names a percentile for reports ("p99.2", "p100").
func pctLabel(p float64) string { return fmt.Sprintf("p%.3g", p) }
