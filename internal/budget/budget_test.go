package budget

import (
	"context"
	"errors"
	"testing"
	"time"
)

// fakeClock advances only when told, making slice arithmetic exact.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newGoverned(total time.Duration) (*Governor, *fakeClock) {
	c := &fakeClock{t: time.Unix(1000, 0)}
	g := &Governor{frac: defaultFrac, floor: defaultFloor, now: c.now}
	g.deadline = c.t.Add(total)
	return g, c
}

func TestGovernorSlicesDecayAndRollOver(t *testing.T) {
	g, clock := newGoverned(8 * time.Second)
	if got := g.Slice(); got != 4*time.Second {
		t.Fatalf("first slice %v, want 4s", got)
	}
	// Fully consuming the slice halves the next one: exponential decay.
	clock.advance(4 * time.Second)
	if got := g.Slice(); got != 2*time.Second {
		t.Fatalf("second slice %v, want 2s", got)
	}
	// Consuming only a little rolls the unused time over: the next slice
	// is larger than strict decay would allow.
	clock.advance(200 * time.Millisecond)
	if got := g.Slice(); got != 1900*time.Millisecond {
		t.Fatalf("rollover slice %v, want 1.9s", got)
	}
}

func TestGovernorFloorAndExhaustion(t *testing.T) {
	g, clock := newGoverned(time.Second)
	clock.advance(2 * time.Second)
	if !g.Exhausted() {
		t.Fatal("governor past its deadline not exhausted")
	}
	if got := g.Remaining(); got != 0 {
		t.Fatalf("remaining %v past deadline, want 0", got)
	}
	// Past the deadline the slice floors instead of going nonpositive, so
	// a ladder's terminal rungs still get a (tiny) allowance.
	if got := g.Slice(); got != defaultFloor {
		t.Fatalf("exhausted slice %v, want floor %v", got, defaultFloor)
	}
}

func TestGovernorUnlimited(t *testing.T) {
	for _, g := range []*Governor{nil, New(0), {}} {
		if g.Exhausted() {
			t.Fatal("unlimited governor exhausted")
		}
		if got := g.Slice(); got != 0 {
			t.Fatalf("unlimited slice %v, want 0", got)
		}
		if got := g.Limit(3 * time.Second); got != 3*time.Second {
			t.Fatalf("unlimited Limit %v, want the per-solve budget", got)
		}
	}
}

func TestGovernorLimit(t *testing.T) {
	g, _ := newGoverned(8 * time.Second) // slice = 4s
	if got := g.Limit(0); got != 4*time.Second {
		t.Fatalf("Limit(0) %v, want the slice", got)
	}
	if got := g.Limit(time.Second); got != time.Second {
		t.Fatalf("Limit(1s) %v, want the tighter per-solve budget", got)
	}
	if got := g.Limit(time.Minute); got != 4*time.Second {
		t.Fatalf("Limit(1m) %v, want the tighter slice", got)
	}
}

func TestGovernorAllowanceAtBoundary(t *testing.T) {
	g, clock := newGoverned(time.Second)
	// While budget remains, Allowance behaves exactly like Limit.
	if got, err := g.Allowance(0); err != nil || got != 500*time.Millisecond {
		t.Fatalf("Allowance(0) = %v, %v; want 500ms slice", got, err)
	}
	// Exactly at the deadline — the boundary — the budget is spent:
	// Allowance must refuse immediately rather than grant a floor slice.
	clock.advance(time.Second)
	if _, err := g.Allowance(0); !errors.Is(err, ErrExhausted) {
		t.Fatalf("Allowance at the deadline boundary = %v, want ErrExhausted", err)
	}
	// One nanosecond before the boundary it must still grant (the floor).
	g2, clock2 := newGoverned(time.Second)
	clock2.advance(time.Second - time.Nanosecond)
	if got, err := g2.Allowance(0); err != nil || got != defaultFloor {
		t.Fatalf("Allowance just inside the boundary = %v, %v; want floor grant", got, err)
	}
	// Unlimited governors never exhaust.
	if got, err := (*Governor)(nil).Allowance(time.Second); err != nil || got != time.Second {
		t.Fatalf("nil-governor Allowance = %v, %v", got, err)
	}
}

func TestGovernorRolloverAtBoundary(t *testing.T) {
	// A point that finishes just before the deadline rolls its sliver over:
	// the next slice is the floor, not zero and not negative.
	g, clock := newGoverned(time.Second)
	clock.advance(time.Second - time.Millisecond)
	if got := g.Slice(); got != defaultFloor {
		t.Fatalf("sliver-remaining slice %v, want floor %v", got, defaultFloor)
	}
	if got, err := g.Allowance(0); err != nil || got != defaultFloor {
		t.Fatalf("sliver-remaining Allowance = %v, %v; want floor", got, err)
	}
	// Crossing the boundary flips Allowance to ErrExhausted while Slice
	// keeps returning the floor (the documented ladder-terminal behavior).
	clock.advance(2 * time.Millisecond)
	if got := g.Slice(); got != defaultFloor {
		t.Fatalf("post-deadline slice %v, want floor %v", got, defaultFloor)
	}
	if _, err := g.Allowance(0); !errors.Is(err, ErrExhausted) {
		t.Fatalf("post-deadline Allowance = %v, want ErrExhausted", err)
	}
}

func TestNewNegativeBudgetIsExhaustedNotUnlimited(t *testing.T) {
	// A zero-or-negative remaining budget — what multi-tenant apportioning
	// computes for a request whose deadline has passed — must yield an
	// immediately exhausted governor, not an unlimited one.
	g := New(-time.Second)
	if !g.Exhausted() {
		t.Fatal("New(negative) governor is not exhausted")
	}
	if _, err := g.Allowance(0); !errors.Is(err, ErrExhausted) {
		t.Fatalf("New(negative).Allowance = %v, want ErrExhausted", err)
	}
	if g := New(0); g.Exhausted() {
		t.Fatal("New(0) must stay unlimited")
	}
}

func TestMultiGovernorFairShare(t *testing.T) {
	m := NewMulti(8 * time.Second)
	clock := &fakeClock{t: time.Unix(1000, 0)}
	m.now = clock.now

	g1, rel1 := m.AcquireN(1, 0, time.Time{})
	if got := g1.Remaining(); got != 8*time.Second {
		t.Fatalf("lone request share %v, want full 8s capacity", got)
	}
	g2, rel2 := m.AcquireN(1, 0, time.Time{})
	if got := g2.Remaining(); got != 4*time.Second {
		t.Fatalf("second concurrent request share %v, want 4s (capacity/2)", got)
	}
	if m.Active() != 2 || m.Peak() != 2 {
		t.Fatalf("active %d peak %d, want 2/2", m.Active(), m.Peak())
	}
	rel1()
	rel1() // double release must not corrupt the active count
	rel2()
	if m.Active() != 0 || m.Peak() != 2 {
		t.Fatalf("after release: active %d peak %d, want 0/2", m.Active(), m.Peak())
	}
	// The request's own budget and deadline tighten below the share.
	g3, rel3 := m.AcquireN(1, time.Second, time.Time{})
	defer rel3()
	if got := g3.Remaining(); got != time.Second {
		t.Fatalf("requested-budget share %v, want the tighter 1s", got)
	}
	g4, rel4 := m.AcquireN(1, 0, clock.t.Add(500*time.Millisecond))
	defer rel4()
	if got := g4.Remaining(); got != 500*time.Millisecond {
		t.Fatalf("deadline-bounded share %v, want the tighter 500ms", got)
	}
}

func TestMultiGovernorPastDeadlineIsExhausted(t *testing.T) {
	m := NewMulti(time.Minute)
	clock := &fakeClock{t: time.Unix(1000, 0)}
	m.now = clock.now
	g, rel := m.AcquireN(1, time.Second, clock.t.Add(-time.Millisecond))
	defer rel()
	if !g.Exhausted() {
		t.Fatal("past-deadline acquisition must be exhausted")
	}
	if _, err := g.Allowance(0); !errors.Is(err, ErrExhausted) {
		t.Fatalf("past-deadline Allowance = %v, want ErrExhausted", err)
	}
}

func TestMultiGovernorShareFloorAndNil(t *testing.T) {
	m := NewMulti(100 * time.Millisecond)
	var rels []func()
	for i := 0; i < 50; i++ {
		_, rel := m.AcquireN(1, 0, time.Time{})
		rels = append(rels, rel)
	}
	g, rel := m.AcquireN(1, 0, time.Time{})
	rels = append(rels, rel)
	if got := g.Remaining(); got < defaultShareFloor/2 {
		t.Fatalf("share under burst %v collapsed below the floor", got)
	}
	for _, r := range rels {
		r()
	}
	// A nil MultiGovernor applies no apportioning but still honors the
	// request's own budget.
	var nilm *MultiGovernor
	g2, rel2 := nilm.AcquireN(1, 2*time.Second, time.Time{})
	defer rel2()
	if got := g2.Remaining(); got < time.Second || got > 2*time.Second {
		t.Fatalf("nil-multi AcquireN remaining %v, want ~2s", got)
	}
	if nilm.Active() != 0 || nilm.Peak() != 0 {
		t.Fatal("nil-multi counters must be zero")
	}
}

func TestExhaustedWrapsSentinelAndContext(t *testing.T) {
	err := Exhausted(context.Background(), "point %d", 3)
	if !errors.Is(err, ErrExhausted) {
		t.Fatalf("plain exhaustion does not wrap ErrExhausted: %v", err)
	}
	if errors.Is(err, context.Canceled) {
		t.Fatalf("plain exhaustion claims cancellation: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err = Exhausted(ctx, "mid-sweep")
	if !errors.Is(err, ErrExhausted) || !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled exhaustion must wrap both sentinels: %v", err)
	}
	if err := Exhausted(nil, "no context"); !errors.Is(err, ErrExhausted) {
		t.Fatalf("nil-context exhaustion: %v", err)
	}
}

func TestStatusTaxonomy(t *testing.T) {
	want := map[Status]string{
		StatusOptimal:         "optimal",
		StatusFeasible:        "feasible",
		StatusBudgetExhausted: "budget-exhausted",
		StatusInfeasible:      "infeasible",
		StatusCanceled:        "canceled",
		Status(99):            "unknown",
	}
	for s, str := range want {
		if s.String() != str {
			t.Errorf("Status(%d).String() = %q, want %q", int(s), s.String(), str)
		}
	}
	for _, s := range []Status{StatusOptimal, StatusInfeasible} {
		if !s.Proven() {
			t.Errorf("%v must be proven", s)
		}
	}
	for _, s := range []Status{StatusFeasible, StatusBudgetExhausted, StatusCanceled} {
		if s.Proven() {
			t.Errorf("%v must not be proven", s)
		}
	}
}

func TestDefaultLadder(t *testing.T) {
	cases := []struct {
		first Engine
		want  []Engine
	}{
		{EngineMILP, []Engine{EngineMILP, EngineCombinatorial, EngineHeuristic}},
		{EngineCombinatorial, []Engine{EngineCombinatorial, EngineHeuristic}},
		{EngineHeuristic, []Engine{EngineHeuristic}},
		{EngineAuto, []Engine{EngineCombinatorial, EngineHeuristic}},
	}
	for _, c := range cases {
		got := DefaultLadder(c.first)
		if len(got) != len(c.want) {
			t.Fatalf("ladder from %v: %v", c.first, got)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("ladder from %v: %v, want %v", c.first, got, c.want)
			}
		}
	}
	if EngineMILP.String() != "milp" || EngineCombinatorial.String() != "combinatorial" ||
		EngineHeuristic.String() != "heuristic" || Engine(9).String() != "unknown" {
		t.Error("rung names wrong")
	}
}

// TestEngineNames: every engine's String form parses back to it, values
// past the four engines are "unknown", and any other name is an error.
func TestEngineNames(t *testing.T) {
	for e, name := range []string{"auto", "milp", "combinatorial", "heuristic"} {
		eng := Engine(e)
		if eng.String() != name {
			t.Errorf("Engine(%d) is %q, want %q", e, eng, name)
		}
		if got, err := ParseEngine(eng.String()); err != nil || got != eng {
			t.Errorf("ParseEngine(%q) = %v, %v; want %v", name, got, err, eng)
		}
	}
	for _, e := range []Engine{-1, 4, 9} {
		if e.String() != "unknown" {
			t.Errorf("Engine(%d) is %q, want unknown", int(e), e)
		}
	}
	for _, s := range []string{"", "unknown", "MILP", "comb", "auto "} {
		if e, err := ParseEngine(s); err == nil {
			t.Errorf("ParseEngine(%q) = %v, want an error", s, e)
		}
	}
	if EngineAuto.Resolved() != EngineCombinatorial || EngineMILP.Resolved() != EngineMILP ||
		EngineHeuristic.Resolved() != EngineHeuristic {
		t.Error("Resolved must map only EngineAuto, to the combinatorial engine")
	}
}
