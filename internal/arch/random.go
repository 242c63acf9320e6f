package arch

import (
	"math/rand"

	"sos/internal/taskgraph"
)

// RandomLibrary generates a processor library for property-based tests:
// nTypes heterogeneous types with random integer costs in [1,6], random
// integer execution times in [1,5] for each subtask of g, and a ~15%
// chance per (type, subtask) of functional incapability (Type-I
// heterogeneity). Every subtask is guaranteed at least one capable type.
// Communication parameters: C_L=1, D_CR=1, D_CL=0.
func RandomLibrary(rng *rand.Rand, g *taskgraph.Graph, nTypes int) *Library {
	if nTypes < 1 {
		nTypes = 1
	}
	lib := NewLibrary("random", 1, 1, 0)
	n := g.NumSubtasks()
	execs := make([][]float64, nTypes)
	for t := 0; t < nTypes; t++ {
		exec := make([]float64, n)
		for a := 0; a < n; a++ {
			if nTypes > 1 && rng.Float64() < 0.15 {
				exec[a] = NoTime
			} else {
				exec[a] = float64(1 + rng.Intn(5))
			}
		}
		execs[t] = exec
	}
	// Guarantee capability coverage.
	for a := 0; a < n; a++ {
		ok := false
		for t := 0; t < nTypes; t++ {
			if !isInf(execs[t][a]) {
				ok = true
				break
			}
		}
		if !ok {
			execs[rng.Intn(nTypes)][a] = float64(1 + rng.Intn(5))
		}
	}
	for t := 0; t < nTypes; t++ {
		lib.AddType("", float64(1+rng.Intn(6)), execs[t])
	}
	return lib
}

func isInf(f float64) bool { return f > 1e300 }

// ForcedPool generates the forced-mapping pool of the large-instance
// workloads: n processor types, one instance each, where type i runs only
// subtask i, in 1+rng.Intn(5) time units, so capability alone fixes the
// mapping. Callers draw their n-subtask graph from the same rng first;
// the draw order is part of the workloads' identity. Communication
// parameters: C_L=1, D_CR=1, D_CL=0; every type costs 1.
func ForcedPool(rng *rand.Rand, n int) *Instances {
	lib := NewLibrary("forced", 1, 1, 0)
	copies := make([]int, n)
	for i := range copies {
		exec := make([]float64, n)
		for a := range exec {
			exec[a] = NoTime
		}
		exec[i] = float64(1 + rng.Intn(5))
		lib.AddType("", 1, exec)
		copies[i] = 1
	}
	return InstancePool(lib, copies)
}
