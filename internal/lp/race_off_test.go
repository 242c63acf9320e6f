//go:build !race

package lp_test

// raceEnabled reports whether the race detector instruments this binary.
const raceEnabled = false
