package budget

import (
	"sync"
	"time"
)

// MultiGovernor apportions one server-wide solve-time capacity across
// concurrent requests (tenants). Where the single Governor splits one
// budget across the *points of a sweep*, the MultiGovernor splits solver
// capacity across the *requests of a service*: each admitted request
// acquires a per-request Governor whose total budget is the tightest of
//
//   - the request's own asked-for budget (0 = none given),
//   - the wall-clock time remaining to the request's deadline (zero
//     deadline = none given), and
//   - the request's fair share of capacity — capacity divided by the
//     number of concurrently admitted requests, including this one —
//     never below the configured floor so a brief burst cannot starve
//     every request to zero.
//
// A request whose deadline has already passed at acquisition receives an
// exhausted governor (Allowance returns ErrExhausted immediately); the
// caller turns that into a shed/BudgetExhausted answer instead of
// starting a solve it cannot finish.
//
// A nil *MultiGovernor is valid and applies no capacity apportioning:
// AcquireN still honors the request budget and deadline.
type MultiGovernor struct {
	mu       sync.Mutex
	capacity time.Duration // per-request budget when running alone
	floor    time.Duration // minimum fair share under load
	active   int
	peak     int
	now      func() time.Time
}

// defaultShareFloor keeps a request's fair share meaningful under bursts:
// even at high concurrency a request gets at least this much, so the
// degradation ladder's cheap rungs can still run.
const defaultShareFloor = 25 * time.Millisecond

// NewMulti creates a multi-tenant governor over the given per-request
// capacity. capacity <= 0 means no capacity apportioning (requests are
// bounded only by their own budgets and deadlines).
func NewMulti(capacity time.Duration) *MultiGovernor {
	return &MultiGovernor{capacity: capacity, floor: defaultShareFloor, now: time.Now}
}

// Active returns the number of currently admitted (unreleased) requests.
func (m *MultiGovernor) Active() int {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.active
}

// Peak returns the high-water mark of concurrently admitted requests.
func (m *MultiGovernor) Peak() int {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.peak
}

// AcquireN admits one request as n concurrent tenants (n < 1 counts as
// 1) and returns its apportioned Governor plus the release to call when
// the request finishes, which frees all n seats (a repeated release is a
// no-op). requested is the client's own budget ask (0 = none); deadline
// is the wall-clock point the response must exist by (zero = none). A
// racing request runs n engines at once, each occupying a capacity slot,
// so its fair share is capacity divided by the active count *after* all
// n are admitted: it buys concurrency with a thinner share rather than by
// multiplying its allotment, and its engines race in that one wall-clock
// window together.
func (m *MultiGovernor) AcquireN(n int, requested time.Duration, deadline time.Time) (*Governor, func()) {
	n = max(n, 1)
	var nowf func() time.Time = time.Now
	share := time.Duration(0)
	release := func() {}
	if m != nil {
		m.mu.Lock()
		m.active += n
		if m.active > m.peak {
			m.peak = m.active
		}
		if m.capacity > 0 {
			share = max(m.capacity/time.Duration(m.active), m.floor)
		}
		nowf = m.now
		m.mu.Unlock()
		var once sync.Once
		release = func() {
			once.Do(func() {
				m.mu.Lock()
				m.active -= n
				m.mu.Unlock()
			})
		}
	}

	// Tightest of requested budget, deadline headroom, and fair share.
	// total == 0 means "unbounded on this axis"; a negative headroom means
	// the deadline has already passed and must yield an exhausted
	// governor, never an unlimited one.
	total := requested
	tighten := func(d time.Duration) {
		if d != 0 && (total == 0 || d < total) {
			total = d
		}
	}
	tighten(share)
	exhausted := false
	if !deadline.IsZero() {
		head := deadline.Sub(nowf())
		if head <= 0 {
			exhausted = true
		} else {
			tighten(head)
		}
	}

	g := &Governor{frac: defaultFrac, floor: defaultFloor, now: nowf}
	switch {
	case exhausted:
		g.deadline = nowf() // already past: Exhausted from birth
	case total > 0:
		g.deadline = nowf().Add(total)
	}
	return g, release
}
