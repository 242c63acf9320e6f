package cache

import (
	"context"

	"sos/internal/telemetry"
)

// flight is one in-progress solve for a key. The leader closes done
// after the solve finished and — when it produced a proof — after the
// proof was stored, so followers that re-probe the cache on wake-up see
// it.
type flight struct {
	done chan struct{}
	err  error // set before close(done)
}

// Do deduplicates concurrent identical requests. The first caller for a
// key becomes the leader: fn runs on its goroutine, under its context,
// and shared=false is returned with fn's error. Every concurrent caller
// with the same key blocks until the leader finishes (or the follower's
// own ctx is canceled) and gets shared=true.
//
// Followers deliberately receive no value: the leader's result references
// the leader's graph and pool, which are not the follower's. A follower
// re-probes the cache on wake-up — the leader stored any proof before
// done was closed — and Lookup remaps the design into the follower's own
// frame. If the leader failed or produced no proof, the follower falls
// back to solving itself.
//
// A canceled leader behaves like a failed one: its flight is released
// before done closes, so the next arrival elects a fresh leader rather
// than piling onto a doomed solve.
func (c *Cache) Do(ctx context.Context, key Key, fn func() error) (shared bool, err error) {
	return c.do(ctx, key, fn, func() {
		c.tel.Inc(telemetry.CtrCacheCoalesced)
		c.tel.Emit(telemetry.EvCache, 0, "coalesced")
	})
}

// do is the one single-flight protocol behind Do and FrontierView.Do;
// coalesced runs when a follower wakes on a finished flight.
func (c *Cache) do(ctx context.Context, key Key, fn func() error, coalesced func()) (shared bool, err error) {
	c.flightMu.Lock()
	if f, ok := c.flights[key]; ok {
		c.flightMu.Unlock()
		select {
		case <-f.done:
			coalesced()
			return true, f.err
		case <-ctx.Done():
			return true, ctx.Err()
		}
	}
	f := &flight{done: make(chan struct{})}
	c.flights[key] = f
	c.flightMu.Unlock()

	err = fn()

	// Release the key before waking followers: anyone arriving after this
	// point starts fresh instead of consuming a possibly-failed flight.
	c.flightMu.Lock()
	delete(c.flights, key)
	c.flightMu.Unlock()
	f.err = err
	close(f.done)
	return false, err
}
