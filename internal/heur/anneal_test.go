package heur

import (
	"context"
	"testing"

	"sos/internal/arch"
	"sos/internal/expts"
)

func TestAnnealExample1(t *testing.T) {
	g, lib := expts.Example1()
	pool := expts.Example1Pool(lib)
	d, err := Anneal(context.Background(), g, pool, arch.PointToPoint{}, AnnealOptions{
		Iterations: 3000, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(nil); err != nil {
		t.Fatalf("invalid: %v", err)
	}
	if d.Makespan < 2.5-1e-9 {
		t.Errorf("annealing makespan %g beats the proven optimum", d.Makespan)
	}
	// With this budget annealing should at least reach the 2-processor
	// quality region.
	if d.Makespan > 7+1e-9 {
		t.Errorf("annealing makespan %g worse than the uniprocessor", d.Makespan)
	}
}

func TestAnnealRespectsCostCap(t *testing.T) {
	g, lib := expts.Example1()
	pool := expts.Example1Pool(lib)
	d, err := Anneal(context.Background(), g, pool, arch.PointToPoint{}, AnnealOptions{
		CostCap: 7, Iterations: 2000, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if d.Cost > 7+1e-9 {
		t.Errorf("annealing design cost %g over cap 7", d.Cost)
	}
	if d.Makespan < 4-1e-9 {
		t.Errorf("annealing makespan %g beats the cap-7 optimum 4", d.Makespan)
	}
}

func TestAnnealDeterministicForSeed(t *testing.T) {
	g, lib := expts.Example1()
	pool := expts.Example1Pool(lib)
	run := func() float64 {
		d, err := Anneal(context.Background(), g, pool, arch.PointToPoint{}, AnnealOptions{
			Iterations: 1000, Seed: 42,
		})
		if err != nil {
			t.Fatal(err)
		}
		return d.Makespan
	}
	if a, b := run(), run(); a != b {
		t.Errorf("same seed produced %g and %g", a, b)
	}
}

func TestAnnealCanceledContext(t *testing.T) {
	g, lib := expts.Example1()
	pool := expts.Example1Pool(lib)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// Must still return the initial evaluation rather than hanging.
	if _, err := Anneal(ctx, g, pool, arch.PointToPoint{}, AnnealOptions{Iterations: 1 << 20}); err != nil {
		t.Fatalf("canceled anneal: %v", err)
	}
}
