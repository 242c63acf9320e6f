package race

import (
	"context"
	"errors"
	"math"
	"runtime"
	"slices"
	"testing"

	"sos/internal/budget"
	"sos/internal/leakcheck"
	"sos/internal/schedule"
)

// design returns a stand-in design with the given makespan and cost.
func design(makespan, cost float64) *schedule.Design {
	return &schedule.Design{Makespan: makespan, Cost: cost}
}

// step is one scripted rung: what it answers and whether it errors.
type step struct {
	rung budget.Rung
	ans  Answer
	err  error
}

// script turns steps into rungs that record, in ran, which of them ran.
func script(ran *[]int, steps []step) []Rung {
	rungs := make([]Rung, len(steps))
	for i, s := range steps {
		rungs[i] = Rung{Rung: s.rung, Run: func(context.Context) (Answer, error) {
			*ran = append(*ran, i)
			return s.ans, s.err
		}}
	}
	return rungs
}

func TestWalkSettlement(t *testing.T) {
	boom := errors.New("boom")
	const (
		milp = budget.RungMILP
		comb = budget.RungCombinatorial
		heur = budget.RungHeuristic
	)
	tests := []struct {
		name     string
		minCost  bool
		steps    []step
		ran      []int
		won      bool
		rung     budget.Rung
		status   budget.Status
		makespan float64
		gap      float64
		err      error
	}{
		{
			name: "a proof stops the walk",
			steps: []step{
				{milp, Answer{Design: design(5, 9), Status: budget.StatusFeasible, Bound: 4}, nil},
				{comb, Answer{Design: design(4, 9), Status: budget.StatusOptimal, Bound: 4}, nil},
				{heur, Answer{Design: design(3, 9), Status: budget.StatusFeasible}, nil},
			},
			ran: []int{0, 1}, won: true, rung: comb, status: budget.StatusOptimal, makespan: 4,
		},
		{
			name: "an exact infeasible is a proof",
			steps: []step{
				{comb, Answer{Status: budget.StatusInfeasible}, nil},
				{heur, Answer{Design: design(3, 9), Status: budget.StatusFeasible}, nil},
			},
			ran: []int{0}, won: true, rung: comb, status: budget.StatusInfeasible,
		},
		{
			name: "a heuristic infeasible is not a proof",
			steps: []step{
				{heur, Answer{Status: budget.StatusInfeasible}, nil},
				{comb, Answer{Design: design(6, 9), Status: budget.StatusFeasible, Bound: 3}, nil},
			},
			ran: []int{0, 1}, won: true, rung: comb, status: budget.StatusFeasible, makespan: 6, gap: 0.5,
		},
		{
			name: "a tie within 1e-9 goes to the earlier rung",
			steps: []step{
				{comb, Answer{Design: design(5, 9), Status: budget.StatusFeasible}, nil},
				{heur, Answer{Design: design(5-1e-10, 8), Status: budget.StatusFeasible}, nil},
			},
			ran: []int{0, 1}, won: true, rung: comb, status: budget.StatusFeasible, makespan: 5, gap: math.Inf(1),
		},
		{
			name: "a better incumbent beyond the tie wins",
			steps: []step{
				{comb, Answer{Design: design(5, 9), Status: budget.StatusFeasible}, nil},
				{heur, Answer{Design: design(5-1e-6, 8), Status: budget.StatusFeasible}, nil},
			},
			ran: []int{0, 1}, won: true, rung: heur, status: budget.StatusFeasible, makespan: 5 - 1e-6, gap: math.Inf(1),
		},
		{
			name: "the gap is taken against the largest bound",
			steps: []step{
				{milp, Answer{Status: budget.StatusBudgetExhausted, Bound: 8}, nil},
				{comb, Answer{Design: design(10, 9), Status: budget.StatusFeasible, Bound: 5, Gap: 0.5}, nil},
				{heur, Answer{Design: design(12, 7), Status: budget.StatusFeasible, Gap: math.Inf(1)}, nil},
			},
			ran: []int{0, 1, 2}, won: true, rung: comb, status: budget.StatusFeasible, makespan: 10, gap: 0.2,
		},
		{
			name:    "MinCost ranks incumbents by cost",
			minCost: true,
			steps: []step{
				{milp, Answer{Design: design(3, 9), Status: budget.StatusFeasible, Bound: 6}, nil},
				{comb, Answer{Design: design(5, 8), Status: budget.StatusFeasible}, nil},
			},
			ran: []int{0, 1}, won: true, rung: comb, status: budget.StatusFeasible, makespan: 5, gap: 0.25,
		},
		{
			name: "an error comes back when every rung errored",
			steps: []step{
				{milp, Answer{}, boom},
				{comb, Answer{}, errors.New("second")},
			},
			ran: []int{0, 1}, err: boom,
		},
		{
			name: "an incumbent wins when only some rungs errored",
			steps: []step{
				{milp, Answer{}, boom},
				{comb, Answer{Design: design(7, 9), Status: budget.StatusFeasible, Bound: 7}, nil},
			},
			ran: []int{0, 1}, won: true, rung: comb, status: budget.StatusFeasible, makespan: 7, gap: 0,
		},
		{
			name: "no answer and no error is budget exhaustion",
			steps: []step{
				{milp, Answer{}, boom},
				{comb, Answer{Status: budget.StatusBudgetExhausted, Bound: 3}, nil},
			},
			ran: []int{0, 1}, status: budget.StatusBudgetExhausted, gap: math.Inf(1),
		},
		{
			name: "an errored proof does not win",
			steps: []step{
				{comb, Answer{Design: design(4, 9), Status: budget.StatusOptimal}, boom},
				{heur, Answer{Design: design(6, 9), Status: budget.StatusFeasible}, nil},
			},
			ran: []int{0, 1}, won: true, rung: heur, status: budget.StatusFeasible, makespan: 6, gap: math.Inf(1),
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			var ran []int
			p := Portfolio{Rungs: script(&ran, tc.steps), MinCost: tc.minCost}
			s := p.Walk(context.Background())
			if !slices.Equal(ran, tc.ran) {
				t.Errorf("rungs ran %v, want %v", ran, tc.ran)
			}
			if !errors.Is(s.Err, tc.err) || (tc.err == nil) != (s.Err == nil) {
				t.Fatalf("err %v, want %v", s.Err, tc.err)
			}
			if tc.err != nil {
				return
			}
			if s.Won != tc.won || s.Status != tc.status {
				t.Fatalf("won %v status %v, want %v %v", s.Won, s.Status, tc.won, tc.status)
			}
			if s.Won && s.Rung != tc.rung {
				t.Errorf("rung %v, want %v", s.Rung, tc.rung)
			}
			if s.Design != nil && s.Design.Makespan != tc.makespan {
				t.Errorf("makespan %g, want %g", s.Design.Makespan, tc.makespan)
			}
			if s.Gap != tc.gap && math.Abs(s.Gap-tc.gap) > 1e-12 {
				t.Errorf("gap %g, want %g", s.Gap, tc.gap)
			}
		})
	}
}

// TestRaceSettlesLikeWalk races the walk's degraded case: with no proof
// the race settles on the same incumbent and gap rule, and reports the
// rung that produced it.
func TestRaceSettlesLikeWalk(t *testing.T) {
	defer leakcheck.Check(t)
	answer := func(a Answer) func(context.Context) (Answer, error) {
		return func(context.Context) (Answer, error) { return a, nil }
	}
	p := Portfolio{Rungs: []Rung{
		{Rung: budget.RungMILP, Run: answer(Answer{Status: budget.StatusBudgetExhausted, Bound: 8})},
		{Rung: budget.RungCombinatorial, Run: answer(Answer{Design: design(10, 9), Status: budget.StatusFeasible, Bound: 5})},
	}}
	s := p.Race(context.Background())
	if !s.Won || s.Rung != budget.RungCombinatorial || s.Status != budget.StatusFeasible {
		t.Fatalf("settled %+v, want a feasible combinatorial incumbent", s)
	}
	if math.Abs(s.Gap-0.2) > 1e-12 {
		t.Errorf("gap %g, want 0.2 (against the MILP's bound 8)", s.Gap)
	}
}

func TestWalkStopsOnCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	second := false
	p := Portfolio{Rungs: []Rung{
		{Rung: budget.RungMILP, Run: func(context.Context) (Answer, error) {
			cancel()
			return Answer{Design: design(5, 9), Status: budget.StatusFeasible}, nil
		}},
		{Rung: budget.RungCombinatorial, Run: func(context.Context) (Answer, error) {
			second = true
			return Answer{Design: design(4, 9), Status: budget.StatusOptimal}, nil
		}},
	}}
	s := p.Walk(ctx)
	if second {
		t.Fatal("the walk ran a rung after its context was canceled")
	}
	if !s.Won || s.Rung != budget.RungMILP || s.Design.Makespan != 5 {
		t.Errorf("settled %+v, want the first rung's incumbent", s)
	}

	s = p.Walk(ctx)
	if s.Won || s.Status != budget.StatusCanceled {
		t.Errorf("walk under a canceled context: won %v status %v, want canceled", s.Won, s.Status)
	}
}

// TestWalkStartsNoGoroutines: a walk runs its rungs on the caller's
// goroutine, so none exists during a rung that did not exist before.
func TestWalkStartsNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	during := -1
	p := Portfolio{Rungs: []Rung{
		{Rung: budget.RungCombinatorial, Run: func(context.Context) (Answer, error) {
			during = runtime.NumGoroutine()
			return Answer{Design: design(4, 9), Status: budget.StatusOptimal}, nil
		}},
	}}
	p.Walk(context.Background())
	if during > before {
		t.Errorf("%d goroutines during the walk, %d before", during, before)
	}
}

func TestResolve(t *testing.T) {
	const (
		milp = budget.RungMILP
		comb = budget.RungCombinatorial
		heur = budget.RungHeuristic
	)
	tests := []struct {
		ladder          budget.Ladder
		minCost, racing bool
		want            budget.Ladder
	}{
		{budget.DefaultLadder(milp), false, false, budget.Ladder{milp, comb, heur}},
		{budget.DefaultLadder(milp), true, false, budget.Ladder{milp, comb}},
		{budget.DefaultLadder(comb), true, false, budget.Ladder{comb}},
		{budget.DefaultLadder(comb), true, true, budget.Ladder{comb, milp}},
		{budget.DefaultLadder(comb), false, true, budget.Ladder{comb, heur}},
		{budget.DefaultLadder(heur), true, false, budget.Ladder{heur}},
		{budget.Ladder{milp}, false, true, budget.Ladder{milp}},
	}
	for _, tc := range tests {
		if got := Resolve(tc.ladder, tc.minCost, tc.racing); !slices.Equal(got, tc.want) {
			t.Errorf("Resolve(%v, minCost=%v, racing=%v) = %v, want %v",
				tc.ladder, tc.minCost, tc.racing, got, tc.want)
		}
	}
}
