package cache

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"math"

	"sos/internal/budget"
	"sos/internal/pareto"
	"sos/internal/schedule"
	"sos/internal/telemetry"
)

// A swept Pareto frontier is kept as ordinary per-limit proofs: the
// ε-constraint chain's point at cap W, cost-tightened to c, is an Optimal
// entry at W whose cover-down interval [c, W] already says what the point
// answers. The entry is marked tightened, because only a cost-tightened
// design is the chain's point — a single solve at W may return a costlier
// design of the same makespan. A complete chain's final cap, where the
// solve proved infeasibility, is an Infeasible entry. A later sweep walks
// the family's entries down the chain, serves what they cover, and solves
// only the caps they do not. See DESIGN.md §15.

// frontierCap orders chain caps with "uncapped" (<= 0) as +Inf, matching
// both the model's encoding and Request.limit.
func frontierCap(c float64) float64 {
	if c <= 0 {
		return math.Inf(1)
	}
	return c
}

// sweepKey identifies one (family, step, start cap) sweep for
// single-flight dedup. Its tag keeps it apart from every solve key.
func sweepKey(f FamilyKey, step, startCap float64) Key {
	var b []byte
	b = append(b, f[:]...)
	b = append(b, "sos-sweep-v1"...)
	b = binary.BigEndian.AppendUint64(b, normBits(step))
	b = binary.BigEndian.AppendUint64(b, normBits(frontierCap(startCap)))
	return sha256.Sum256(b)
}

// View opens one sweep's handle on the cache. The view implements
// pareto.FrontierSource (serve covered chain regions, warm-seed the
// delta solves) and accounts what it served so Finish can classify the
// sweep as a hit, partial hit, or miss and store the new points. p must
// be a MinMakespan probe of the swept problem, step the sweep's cost
// step, startCap its starting cap.
func (c *Cache) View(p *Probe, step, startCap float64) *FrontierView {
	if step <= 0 {
		step = 1
	}
	return &FrontierView{c: c, probe: p, step: step, start: startCap}
}

// FrontierView is one sweep's window onto the cache.
//
// Serve and Finish are called from the sweep's chain-walk goroutine
// only; Warm may be called concurrently from sweep workers (it touches
// only immutable view fields and the internally locked cache).
type FrontierView struct {
	c     *Cache
	probe *Probe
	step  float64
	start float64

	served int  // points served into the sweep
	done   bool // the cache proved chain termination for this sweep
}

// Do deduplicates concurrent identical sweeps (same family, step and
// start cap) through the cache's single-flight: the leader runs fn,
// which sweeps and stores the chain; followers wake after it finishes
// and re-sweep, served from the cache in their own frame.
func (v *FrontierView) Do(ctx context.Context, fn func() error) (shared bool, err error) {
	return v.c.do(ctx, sweepKey(v.probe.canon.family, v.step, v.start), fn, func() {
		v.c.tel.Emit(telemetry.EvFrontier, frontierCap(v.start), "coalesced")
	})
}

// Serve implements pareto.FrontierSource: the longest cached stretch of
// the chain from cap w, each design remapped into the view's frame and
// re-validated, plus done=true when the cache also proves the chain ends
// after those points.
func (v *FrontierView) Serve(w float64) ([]pareto.Point, bool) {
	chain, done := v.c.chain(v.probe.canon.family, frontierCap(w), v.step)
	var out []pareto.Point
	for _, e := range chain {
		d, err := remapDesign(e, v.probe)
		if err != nil {
			// A point that fails to remap (hash collision) is treated as
			// uncovered: the sweep re-solves from here.
			done = false
			break
		}
		out = append(out, pareto.Point{Design: d, Status: budget.StatusOptimal})
	}
	v.served += len(out)
	if done {
		v.done = true
	}
	return out, done
}

// chain walks a family's proofs down the ε-constraint chain from cap w.
// A covering Infeasible entry ends the chain; otherwise the covering
// tightened entry is the next point and the walk moves on to its cost
// minus step, ending once that is <= 0. The walk stops at the first cap
// no entry answers.
func (c *Cache) chain(f FamilyKey, w, step float64) (pts []*entry, done bool) {
	s := c.shardFor(f)
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		var next *entry
		for _, e := range s.families[f] {
			if !e.covers(w) {
				continue
			}
			if e.infeasible {
				return pts, true
			}
			if e.tightened {
				next = e
			}
		}
		if next == nil {
			return pts, false
		}
		s.touch(next)
		pts = append(pts, next)
		if w = next.designLimit - step; w <= 0 {
			return pts, true
		}
	}
}

// Warm implements pareto.FrontierSource: up to max cached designs
// admissible at cap w (cost <= w), best makespan first, remapped into the
// view's frame. Offered to delta solves as untrusted incumbents.
func (v *FrontierView) Warm(w float64, max int) []*schedule.Design {
	return v.c.warm(v.probe, frontierCap(w), max)
}

// Finish records the sweep's outcome: classifies it against the cache
// (hit / partial hit / miss telemetry) and, when every returned point is
// a certified optimum, stores the chain — the whole chain on a complete
// sweep (sweepErr == nil), the certified prefix on a budget-truncated
// one. pts must be the sweep's ordered output, so chain caps
// reconstruct exactly from the start cap and the cost step.
func (v *FrontierView) Finish(pts []pareto.Point, sweepErr error) {
	tel := v.c.tel
	delta := max(len(pts)-v.served, 0)
	covered := v.served > 0 || v.done
	switch {
	case covered && delta == 0:
		tel.Inc(telemetry.CtrFrontierHits)
		tel.Emit(telemetry.EvFrontier, float64(v.served), "hit")
		return // nothing new was proved
	case covered:
		tel.Inc(telemetry.CtrFrontierPartialHits)
		tel.Add(telemetry.CtrFrontierDeltaPoints, int64(delta))
		tel.Emit(telemetry.EvFrontier, float64(delta), "partial")
	default:
		tel.Inc(telemetry.CtrFrontierMisses)
		tel.Emit(telemetry.EvFrontier, frontierCap(v.start), "miss")
	}
	if sweepErr != nil && !errors.Is(sweepErr, budget.ErrExhausted) {
		return
	}
	v.c.storeChain(v.probe, v.step, v.start, pts, sweepErr == nil)
}

// storeChain files a sweep's chain as proofs: point i, solved at chain
// cap W_i, becomes a tightened Optimal entry at W_i, and W_{i+1} is its
// cost minus step. complete marks a sweep that ran to the chain's end;
// if that end is a cap W_n > 0, the solve there proved infeasibility and
// W_n becomes an Infeasible entry. Nothing is stored unless every point
// is certified: behind a degraded point the sweep may drop dominated
// points, and the caps no longer follow from the costs.
func (c *Cache) storeChain(p *Probe, step, startCap float64, pts []pareto.Point, complete bool) {
	for _, pt := range pts {
		if pt.Status != budget.StatusOptimal || pt.Design == nil {
			return
		}
	}
	var chain []*entry
	w := frontierCap(startCap)
	for _, pt := range pts {
		e := entryAt(p, w)
		e.design, e.objVal, e.designLimit, e.tightened = pt.Design, pt.Perf(), pt.Cost(), true
		chain = append(chain, e)
		w = pt.Cost() - step
	}
	if complete && w > 0 {
		e := entryAt(p, w)
		e.infeasible, e.objVal, e.designLimit = true, math.Inf(1), math.Inf(1)
		chain = append(chain, e)
	}
	stored, evicted := 0, 0
	for _, e := range chain {
		added, n := c.insert(e)
		evicted += n
		if added {
			stored++
			c.appendSpill(e)
		}
	}
	if evicted > 0 {
		c.tel.Emit(telemetry.EvFrontier, float64(evicted), "evict")
	}
	if stored > 0 {
		c.tel.Inc(telemetry.CtrFrontierStores)
		c.tel.Emit(telemetry.EvFrontier, float64(stored), "store")
	}
}

// entryAt starts the entry for p's family at cost cap w (+Inf =
// uncapped), in p's frame.
func entryAt(p *Probe, w float64) *entry {
	req := p.Req
	req.CostCap = w
	if math.IsInf(w, 1) {
		req.CostCap = 0
	}
	cn := *p.canon
	cn.limit, cn.key = w, limitKey(cn.family, w)
	return &entry{key: cn.key, family: cn.family, limit: w, canon: &cn, req: req}
}
