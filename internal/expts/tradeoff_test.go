package expts

import (
	"context"
	"testing"
	"time"

	"sos/internal/arch"
	"sos/internal/budget"
	"sos/internal/exact"
	"sos/internal/pareto"
	"sos/internal/race"
	"sos/internal/taskgraph"
)

// paperRange filters a frontier to the paper's examined cost range (>= 5);
// the complete frontier additionally contains the cost-4 single-p1 point
// the paper never visited (see Table2Full).
func paperRange(pts []pareto.Point) []pareto.Point {
	var out []pareto.Point
	for _, p := range pts {
		if p.Cost() >= 5-1e-9 {
			out = append(out, p)
		}
	}
	return out
}

func sweepExact(t *testing.T, g *taskgraph.Graph, lib *arch.Library) []pareto.Point {
	t.Helper()
	pool := Example1Pool(lib)
	pts, err := pareto.Sweep(context.Background(), &race.Family{G: g, Pool: pool, Topo: arch.PointToPoint{},
		Rungs: budget.Ladder{budget.EngineCombinatorial}, Frontier: true,
		Exact: exact.Options{TimeLimit: 3 * time.Minute}}, pareto.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return paperRange(pts)
}

// TestExp1CommunicationScaling reproduces §4.2.1 under the traditional
// dataflow semantics (see Example1Strict): with all transfer volumes
// doubled only the 2-processor and uniprocessor designs remain
// non-inferior; at six times the volume only the uniprocessor survives.
func TestExp1CommunicationScaling(t *testing.T) {
	g, lib := Example1Strict()

	x2 := sweepExact(t, g.ScaleVolumes(2), lib)
	if len(x2) != Exp1VolX2Designs {
		for _, p := range x2 {
			t.Logf("  ×2 point: cost=%g perf=%g procs=%d", p.Cost(), p.Perf(), len(p.Design.Procs))
		}
		t.Fatalf("volume ×2 frontier has %d points, paper says %d", len(x2), Exp1VolX2Designs)
	}
	for _, p := range x2 {
		if n := len(p.Design.Procs); n > 2 {
			t.Errorf("volume ×2 kept a %d-processor design (cost=%g perf=%g)", n, p.Cost(), p.Perf())
		}
	}

	x6 := sweepExact(t, g.ScaleVolumes(6), lib)
	if len(x6) != Exp1VolX6Designs {
		t.Fatalf("volume ×6 frontier has %d points, paper says %d", len(x6), Exp1VolX6Designs)
	}
	if n := len(x6[0].Design.Procs); n != 1 {
		t.Errorf("volume ×6 survivor has %d processors, want the uniprocessor", n)
	}
}

// TestExp1FractionalSemanticsDiscrepancy documents the reproduction
// finding behind Example1Strict: under Figure 1's fractional f_R/f_A
// parameters, a 3-processor design still achieves makespan 3.5 at doubled
// volumes (data streams out at the f_A point and the consumer tolerates
// late input up to its f_R point), so it stays non-inferior and the
// frontier keeps 3 points rather than the paper's 2.
func TestExp1FractionalSemanticsDiscrepancy(t *testing.T) {
	g, lib := Example1()
	x2 := sweepExact(t, g.ScaleVolumes(2), lib)
	if len(x2) != 3 {
		for _, p := range x2 {
			t.Logf("  point: cost=%g perf=%g", p.Cost(), p.Perf())
		}
		t.Fatalf("fractional ×2 frontier has %d points, expected 3 (see comment)", len(x2))
	}
	if x2[len(x2)-1].Perf() != 3.5 && x2[0].Perf() != 3.5 {
		// The fastest point is the 3-processor design at makespan 3.5.
		fast := x2[0]
		for _, p := range x2 {
			if p.Perf() < fast.Perf() {
				fast = p
			}
		}
		if fast.Perf() != 3.5 {
			t.Errorf("fastest fractional ×2 design has makespan %g, want 3.5", fast.Perf())
		}
	}
}

// TestExp2ExecutionScaling reproduces §4.2.2 under Figure 1's fractional
// semantics: with all subtask sizes doubled the frontier grows to five
// designs (the new one uses two p1 instances and one p3, cost 12); at
// three times the size it grows to seven, adding a 4-processor design
// (p1×2+p2+p3, cost 18) and a new 2-processor design (p1+p2, cost 10).
func TestExp2ExecutionScaling(t *testing.T) {
	g, lib := Example1()

	x2 := sweepExact(t, g, lib.ScaleExec(2))
	if len(x2) != Exp2SizeX2Designs {
		for _, p := range x2 {
			t.Logf("  ×2 point: cost=%g perf=%g procs=%v", p.Cost(), p.Perf(), p.Design.NumProcsByType())
		}
		t.Fatalf("size ×2 frontier has %d points, paper says %d", len(x2), Exp2SizeX2Designs)
	}
	foundNew := false
	for _, p := range x2 {
		byType := p.Design.NumProcsByType()
		if byType["p1"] == 2 && byType["p3"] == 1 && len(p.Design.Procs) == 3 && p.Cost() == 12 {
			foundNew = true
		}
	}
	if !foundNew {
		t.Errorf("size ×2 frontier lacks the paper's new p1×2+p3 design at cost 12")
	}

	x3 := sweepExact(t, g, lib.ScaleExec(3))
	if len(x3) != Exp2SizeX3Designs {
		for _, p := range x3 {
			t.Logf("  ×3 point: cost=%g perf=%g procs=%v", p.Cost(), p.Perf(), p.Design.NumProcsByType())
		}
		t.Fatalf("size ×3 frontier has %d points, paper says %d", len(x3), Exp2SizeX3Designs)
	}
	found4, found2new := false, false
	for _, p := range x3 {
		byType := p.Design.NumProcsByType()
		if len(p.Design.Procs) == 4 && byType["p1"] == 2 && byType["p2"] == 1 && byType["p3"] == 1 {
			found4 = true
		}
		if len(p.Design.Procs) == 2 && byType["p1"] == 1 && byType["p2"] == 1 && p.Cost() == 10 {
			found2new = true
		}
	}
	if !found4 {
		t.Errorf("size ×3 frontier lacks the paper's 4-processor p1×2+p2+p3 design")
	}
	if !found2new {
		t.Errorf("size ×3 frontier lacks the paper's new 2-processor p1+p2 design at cost 10")
	}
}
