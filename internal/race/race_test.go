package race

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"sos/internal/budget"
	"sos/internal/leakcheck"
	"sos/internal/schedule"
	"sos/internal/telemetry"
)

func TestBusVetRejects(t *testing.T) {
	bus := NewBus(func(d *schedule.Design, obj float64) bool { return obj <= 10 })
	d := &schedule.Design{}
	if bus.Publish(budget.EngineMILP, d, 20) {
		t.Error("vet-failing design was installed")
	}
	if bus.Version() != 0 {
		t.Errorf("version %d after rejected publish, want 0", bus.Version())
	}
	if !bus.Publish(budget.EngineMILP, d, 5) {
		t.Error("vet-passing design was rejected")
	}
	if bus.Publish(budget.EngineMILP, nil, 1) {
		t.Error("nil design was installed")
	}
}

func TestBusStrictImprovement(t *testing.T) {
	bus := NewBus(nil)
	a, b := &schedule.Design{}, &schedule.Design{}
	if !bus.Publish(budget.EngineHeuristic, a, 5) {
		t.Fatal("first publish rejected")
	}
	if bus.Publish(budget.EngineMILP, b, 5) {
		t.Error("equal objective must not replace the incumbent")
	}
	if bus.Publish(budget.EngineMILP, b, 6) {
		t.Error("worse objective must not replace the incumbent")
	}
	if !bus.Publish(budget.EngineMILP, b, 4) {
		t.Error("strictly better objective rejected")
	}
	d, obj, src, ok := bus.Best()
	if !ok || d != b || obj != 4 || src != budget.EngineMILP {
		t.Errorf("Best = (%p, %g, %v, %v), want (%p, 4, milp, true)", d, obj, src, ok, b)
	}
	if bus.Version() != 2 {
		t.Errorf("version %d after two installs, want 2", bus.Version())
	}
}

func TestBusPeekVersioning(t *testing.T) {
	bus := NewBus(nil)
	if _, _, ok := bus.Peek(0); ok {
		t.Error("Peek on an empty bus reported news")
	}
	d := &schedule.Design{}
	bus.Publish(budget.EngineCombinatorial, d, 3)
	got, v, ok := bus.Peek(0)
	if !ok || got != d || v != 1 {
		t.Fatalf("Peek(0) = (%p, %d, %v), want (%p, 1, true)", got, v, ok, d)
	}
	if _, _, ok := bus.Peek(v); ok {
		t.Error("Peek at the current version reported news")
	}
}

// The race-run tests: Portfolio.Race starts one goroutine per rung,
// settles on the first proof, and joins every rung before it returns.

func TestRunFirstProofWinsAndCancels(t *testing.T) {
	defer leakcheck.Check(t)
	var joined atomic.Int32
	loser := func(r budget.Engine) Rung {
		return Rung{Rung: r, Run: func(ctx context.Context) (Answer, error) {
			<-ctx.Done() // loses: blocked until the winner cancels
			joined.Add(1)
			return Answer{Design: design(9, 9), Status: budget.StatusFeasible}, nil
		}}
	}
	tel := telemetry.New(nil)
	p := Portfolio{Telemetry: tel, Rungs: []Rung{
		loser(budget.EngineMILP),
		{Rung: budget.EngineCombinatorial, Run: func(context.Context) (Answer, error) {
			return Answer{Design: design(4, 9), Status: budget.StatusOptimal}, nil
		}},
		loser(budget.EngineHeuristic),
	}}
	s := p.Race(context.Background())
	if !s.Won || s.Rung != budget.EngineCombinatorial || s.Status != budget.StatusOptimal {
		t.Fatalf("settled %+v, want the combinatorial proof", s)
	}
	if got := tel.Get(telemetry.CtrRaceCanceled); got != 2 {
		t.Errorf("race_canceled %d, want 2", got)
	}
	if got := joined.Load(); got != 2 {
		t.Errorf("%d losers returned before Race did, want 2 (losers must be joined, not dropped)", got)
	}
}

func TestRunPanicIsolated(t *testing.T) {
	defer leakcheck.Check(t)
	tel := telemetry.New(nil)
	p := Portfolio{Telemetry: tel, Rungs: []Rung{
		{Rung: budget.EngineMILP, Run: func(context.Context) (Answer, error) {
			panic("worker crashed")
		}},
		{Rung: budget.EngineCombinatorial, Run: func(context.Context) (Answer, error) {
			time.Sleep(10 * time.Millisecond) // let the panic land first
			return Answer{Design: design(4, 9), Status: budget.StatusOptimal}, nil
		}},
	}}
	s := p.Race(context.Background())
	if !s.Won || s.Rung != budget.EngineCombinatorial {
		t.Fatalf("settled %+v, want the surviving rung's proof adopted", s)
	}
	if got := tel.Get(telemetry.CtrReqPanics); got != 1 {
		t.Errorf("req_panics %d, want 1", got)
	}
	if got := tel.Get(telemetry.CtrRaceWinsMILP); got != 0 {
		t.Errorf("race_wins_milp %d for the crashed rung, want 0", got)
	}

	// A lone crashing rung: its panic is the race's error.
	p.Rungs = p.Rungs[:1]
	if s := p.Race(context.Background()); !errors.Is(s.Err, budget.ErrPanic) {
		t.Errorf("err %v, want the isolated panic", s.Err)
	}
}

func TestRunNoWinner(t *testing.T) {
	tel := telemetry.New(nil)
	s := Portfolio{Telemetry: tel, Rungs: []Rung{
		{Rung: budget.EngineMILP, Run: func(context.Context) (Answer, error) {
			return Answer{Design: design(5, 9), Status: budget.StatusFeasible}, nil
		}},
		{Rung: budget.EngineCombinatorial, Run: func(context.Context) (Answer, error) {
			return Answer{}, errors.New("boom")
		}},
	}}.Race(context.Background())
	if s.Status != budget.StatusFeasible || s.Rung != budget.EngineMILP {
		t.Fatalf("settled %+v without any proof, want the MILP incumbent", s)
	}
	if got := tel.Get(telemetry.CtrRaceCanceled); got != 0 {
		t.Errorf("race_canceled %d without a winner, want 0", got)
	}
}

func TestRunProofWithErrorDoesNotWin(t *testing.T) {
	s := Portfolio{Rungs: []Rung{
		{Rung: budget.EngineMILP, Run: func(context.Context) (Answer, error) {
			return Answer{Design: design(4, 9), Status: budget.StatusOptimal}, errors.New("failed after proving")
		}},
	}}.Race(context.Background())
	if s.Won || s.Err == nil {
		t.Fatalf("errored proof won the race: %+v", s)
	}
}

func TestRunHonorsParentCancel(t *testing.T) {
	defer leakcheck.Check(t)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan Settled, 1)
	go func() {
		done <- Portfolio{Rungs: []Rung{
			{Rung: budget.EngineMILP, Run: func(rctx context.Context) (Answer, error) {
				<-rctx.Done()
				return Answer{Status: budget.StatusCanceled}, nil
			}},
		}}.Race(ctx)
	}()
	cancel()
	select {
	case s := <-done:
		if s.Won || s.Status != budget.StatusCanceled {
			t.Errorf("settled %+v after cancel, want canceled without a winner", s)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Race did not return after parent cancellation")
	}
}

// TestWalkIsolatesPanic: a walk turns a crashing rung into that rung's
// error and degrades to the next rung, on the caller's goroutine.
func TestWalkIsolatesPanic(t *testing.T) {
	tel := telemetry.New(nil)
	s := Portfolio{Telemetry: tel, Rungs: []Rung{
		{Rung: budget.EngineMILP, Run: func(context.Context) (Answer, error) {
			panic("worker crashed")
		}},
		{Rung: budget.EngineCombinatorial, Run: func(context.Context) (Answer, error) {
			return Answer{Design: design(4, 9), Status: budget.StatusOptimal}, nil
		}},
	}}.Walk(context.Background())
	if !s.Won || s.Rung != budget.EngineCombinatorial || s.Status != budget.StatusOptimal {
		t.Fatalf("settled %+v, want the next rung's proof", s)
	}
	if got := tel.Get(telemetry.CtrReqPanics); got != 1 {
		t.Errorf("req_panics %d, want 1", got)
	}
}
