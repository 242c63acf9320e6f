//go:build race

package sos

// raceEnabled reports whether the race detector instruments this binary.
const raceEnabled = true
