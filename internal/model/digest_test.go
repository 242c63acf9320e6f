package model

import (
	"hash/fnv"
	"math/rand"
	"testing"

	"sos/internal/arch"
	"sos/internal/expts"
	"sos/internal/taskgraph"
)

// TestModelDigests pins every built model byte for byte: the FNV-64a hash
// of its CPLEX LP text (column and row names, order, coefficients and
// bounds). A change to how the builder enumerates columns or rows must
// keep every hash; a change to the formulation re-pins the models it
// moves, and only those.
func TestModelDigests(t *testing.T) {
	ex1 := func(topo arch.Topology, opts Options) func(*testing.T) *Model {
		return func(t *testing.T) *Model {
			g, lib := expts.Example1()
			opts.Objective, opts.CostCap = MinMakespan, 14
			m, err := Build(g, expts.Example1Pool(lib), topo, opts)
			if err != nil {
				t.Fatal(err)
			}
			return m
		}
	}
	ex2 := func(topo arch.Topology) func(*testing.T) *Model {
		return func(t *testing.T) *Model {
			g, lib := expts.Example2()
			m, err := Build(g, expts.Example2Pool(lib), topo, Options{Objective: MinMakespan, CostCap: 15})
			if err != nil {
				t.Fatal(err)
			}
			return m
		}
	}
	forced := func(shape func(*rand.Rand, taskgraph.StructuredSpec) *taskgraph.Graph) func(*testing.T) *Model {
		return func(t *testing.T) *Model {
			return buildForced(t, rand.New(rand.NewSource(200)), 200, shape)
		}
	}
	cases := []struct {
		name  string
		build func(*testing.T) *Model
		want  uint64
	}{
		{"ex1-p2p", ex1(arch.PointToPoint{}, Options{}), 0x38bb0e4e824478db},
		{"ex1-bus", ex1(arch.Bus{}, Options{}), 0xe956b2676d8a4cad},
		{"ex1-ring", ex1(arch.Ring{}, Options{}), 0x66b49043b7330fbf},
		{"ex1-shmem", ex1(arch.SharedMemory{}, Options{}), 0xf0aa738432c169ef},
		{"ex1-p2p-memory", ex1(arch.PointToPoint{}, Options{Memory: true}), 0xbef86b9503c1066f},
		{"ex1-p2p-nooverlap", ex1(arch.PointToPoint{}, Options{NoOverlapIO: true}), 0x74d015b936b500dc},
		{"ex2-p2p", ex2(arch.PointToPoint{}), 0x524cece5e05bf6c9},
		{"ex2-bus", ex2(arch.Bus{}), 0x25f07c6fb0b33e8f},
		{"free-sp8", func(t *testing.T) *Model {
			rng := rand.New(rand.NewSource(8))
			g := taskgraph.SeriesParallel(rng, taskgraph.StructuredSpec{Subtasks: 8, MaxFan: 3, MaxVol: 6, Fractions: true})
			lib := arch.RandomLibrary(rng, g, 3)
			m, err := Build(g, arch.AutoPool(lib, g, 2), arch.PointToPoint{}, Options{Objective: MinMakespan})
			if err != nil {
				t.Fatal(err)
			}
			if len(m.Alpha) == 0 || len(m.Phi) == 0 {
				t.Fatalf("free-mapping model has %d α and %d φ columns; the pin needs both", len(m.Alpha), len(m.Phi))
			}
			return m
		}, 0x95cec44f9348b181},
		{"forced-sp200", forced(taskgraph.SeriesParallel), 0x5226423690b7478b},
		{"forced-fj200", forced(taskgraph.ForkJoin), 0x04b1dd501cbedfd5},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			h := fnv.New64a()
			if err := c.build(t).WriteLP(h); err != nil {
				t.Fatal(err)
			}
			if got := h.Sum64(); got != c.want {
				t.Errorf("LP digest %#016x, want %#016x", got, c.want)
			}
		})
	}
}
