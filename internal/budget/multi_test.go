package budget

import (
	"testing"
	"time"
)

func TestAcquireNThinsShare(t *testing.T) {
	m := NewMulti(12 * time.Second)
	clock := &fakeClock{t: time.Unix(1000, 0)}
	m.now = clock.now

	// A racing request admitted as 3 tenants pays for its concurrency:
	// each racer's window is capacity/3, not capacity.
	g, rel := m.AcquireN(3, 0, time.Time{})
	if m.Active() != 3 {
		t.Fatalf("active %d after AcquireN(3), want 3", m.Active())
	}
	if got := g.Remaining(); got != 4*time.Second {
		t.Errorf("racer remaining %v, want 4s (12s / 3 tenants)", got)
	}

	// A sequential neighbor admitted while the race runs sees 4 tenants.
	g4, rel4 := m.AcquireN(1, 0, time.Time{})
	if got := g4.Remaining(); got != 3*time.Second {
		t.Errorf("neighbor remaining %v, want 3s (12s / 4 tenants)", got)
	}
	rel4()
	rel()
	if m.Active() != 0 {
		t.Fatalf("active %d after releases, want 0", m.Active())
	}
}

func TestAcquireNReleaseOnce(t *testing.T) {
	m := NewMulti(time.Minute)
	_, rel := m.AcquireN(3, 0, time.Time{})
	rel()
	rel() // a double release must not drive active negative
	if got := m.Active(); got != 0 {
		t.Fatalf("active %d after double release, want 0", got)
	}
}

func TestAcquireNTightensLikeAcquire(t *testing.T) {
	m := NewMulti(time.Minute)
	clock := &fakeClock{t: time.Unix(1000, 0)}
	m.now = clock.now

	// The requested budget is tighter than the share: it wins.
	g, rel := m.AcquireN(2, time.Second, time.Time{})
	if got := g.Remaining(); got != time.Second {
		t.Errorf("remaining %v with a 1s request, want 1s", got)
	}
	rel()

	// Deadline headroom tighter than both: it wins.
	g, rel = m.AcquireN(2, time.Second, clock.t.Add(300*time.Millisecond))
	if got := g.Remaining(); got != 300*time.Millisecond {
		t.Errorf("remaining %v with 300ms headroom, want 300ms", got)
	}
	rel()
}

func TestAcquireNPastDeadlineExhaustedFromBirth(t *testing.T) {
	m := NewMulti(time.Minute)
	clock := &fakeClock{t: time.Unix(1000, 0)}
	m.now = clock.now
	g, rel := m.AcquireN(2, 0, clock.t.Add(-time.Millisecond))
	defer rel()
	if !g.Exhausted() {
		t.Error("racer not exhausted despite a passed deadline")
	}
}

func TestAcquireNNilAndDegenerate(t *testing.T) {
	var nilm *MultiGovernor
	g, rel := nilm.AcquireN(0, 2*time.Second, time.Time{})
	defer rel()
	if g == nil {
		t.Fatal("AcquireN(0) returned no governor")
	}
	if got := g.Remaining(); got < 1900*time.Millisecond || got > 2*time.Second {
		t.Errorf("nil-multi remaining %v, want ~2s (request bound only)", got)
	}
}
