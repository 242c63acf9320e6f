package exact

import (
	"context"
	"math"
	"testing"

	"sos/internal/arch"
	"sos/internal/expts"
	"sos/internal/telemetry"
)

func TestRelCutRelPad(t *testing.T) {
	if got := relCut(1e9, 1e-9); got >= 1e9 || 1e9-got < 0.5 {
		t.Errorf("relCut(1e9) = %v: slack did not scale with magnitude", got)
	}
	if got := relCut(math.Inf(1), incumbentTol); !math.IsInf(got, 1) {
		t.Errorf("relCut(+Inf) = %v, want +Inf (NaN would disable pruning)", got)
	}
	if got := relPad(math.Inf(1), incumbentTol); !math.IsInf(got, 1) {
		t.Errorf("relPad(+Inf) = %v, want +Inf", got)
	}
	if got := relPad(2, incumbentTol); got <= 2 {
		t.Errorf("relPad(2) = %v, want > 2", got)
	}
}

// TestLargeScaleIncumbentComparisons scales Example 1 durations so objective
// values are far above the old absolute epsilon's useful range; the search
// must still prove the (scaled) Table II optimum.
func TestLargeScaleIncumbentComparisons(t *testing.T) {
	const scale = 1e6
	g, lib := expts.Example1()
	// Scale every duration uniformly so makespans scale by `scale` while the
	// cost structure (and thus the optimal design) is unchanged.
	lib = lib.ScaleExec(scale)
	lib.RemoteDelay *= scale
	lib.LocalDelay *= scale
	pool := expts.Example1Pool(lib)
	res, err := Synthesize(context.Background(), g, pool, arch.PointToPoint{},
		Options{Objective: MinMakespan, CostCap: 14})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Optimal || res.Design == nil {
		t.Fatalf("search not exhausted or no design: %+v", res)
	}
	want := 2.5 * scale
	if math.Abs(res.Design.Makespan-want) > incumbentTol*want*10 {
		t.Errorf("makespan = %g, want %g", res.Design.Makespan, want)
	}
}

func TestExactTelemetryConsistency(t *testing.T) {
	g, lib := expts.Example1()
	pool := expts.Example1Pool(lib)
	sink := &telemetry.CountingSink{}
	tel := telemetry.New(sink)
	res, err := Synthesize(context.Background(), g, pool, arch.PointToPoint{},
		Options{Objective: MinMakespan, CostCap: 14, Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	if got := tel.Get(telemetry.CtrMapNodes); got != int64(res.Nodes) {
		t.Errorf("map_nodes counter = %d, Result.Nodes = %d", got, res.Nodes)
	}
	if got := tel.Get(telemetry.CtrSchedNodes); got != int64(res.Sched) {
		t.Errorf("sched_nodes counter = %d, Result.Sched = %d", got, res.Sched)
	}
	inc := tel.Get(telemetry.CtrIncumbents)
	if inc < 1 {
		t.Error("no incumbents recorded on a feasible solve")
	}
	if got := sink.Count(telemetry.EvIncumbent); got != inc {
		t.Errorf("incumbent events = %d, counter = %d", got, inc)
	}
}
