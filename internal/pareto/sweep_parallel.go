package pareto

import (
	"context"
	"math"
	"sort"
	"sync"
	"time"

	"sos/internal/arch"
	"sos/internal/budget"
	"sos/internal/heur"
	"sos/internal/telemetry"
)

// The speculative-parallel sweep. The ε-constraint chain is inherently
// sequential — each cap is one cost step below the previous point's cost —
// but the solution at a cap is a step function of the cap: solving at cap
// Y returns the frontier point with the largest frontier cost ≤ Y. The
// frontier costs themselves come from a small, enumerable set (sums of
// processor and link costs), so the chain's future caps can be guessed and
// solved concurrently before the chain arrives, and a completed optimal
// solve at cap Z with tightened cost c settles every chain cap in [c, Z].
//
// Sweep's chain walk stays on the caller's goroutine and asks the queue
// for each cap: a covering completed job when one exists, the in-flight
// job at the exact cap, and otherwise an inline solve (so correctness
// never depends on the speculation grid). Whenever a point lands, jobs
// whose caps the point proves redundant are canceled and their workers
// move on. The frontier — points, statuses, order — is the one-worker
// sweep's; the documented divergences are confined to telemetry (governor
// slices granted concurrently, no rollover events for points a job
// served, EvPoint carrying the job's solve duration).

// maxSpeculativeJobs bounds the dispatch grid; the highest caps (the ones
// the chain reaches first) are kept.
const maxSpeculativeJobs = 64

// capKey orders caps with "uncapped" (<= 0) as +Inf, matching the model's
// encoding of an uncapped solve.
func capKey(c float64) float64 {
	if c <= 0 {
		return math.Inf(1)
	}
	return c
}

// capEps absorbs float noise between chain caps (cost − step with the
// solver's cost sum) and grid caps (the same arithmetic over enumerated
// levels). Frontier costs are quantized far coarser than this.
const capEps = 1e-9

type jobState int

const (
	jobPending jobState = iota
	jobRunning
	jobDone
	jobWithdrawn // canceled or claimed while still pending; never ran
)

// specJob is one speculative (or chain-initial) solve.
type specJob struct {
	costCap float64 // 0 = uncapped
	spec    bool    // speculative (not the chain's certain first cap)

	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{} // closed once the job can never produce a result

	// Result fields, written exactly once before done is closed.
	pt    Point
	err   error
	spend time.Duration

	// Bookkeeping, guarded by the queue mutex.
	state    jobState
	canceled bool // cancellation requested (retargeted)
	used     bool // result adopted by the chain
}

// specQueue is the dispatch queue: jobs sorted by descending cap, workers
// popping the highest pending one so the pool naturally migrates down the
// chain.
type specQueue struct {
	sw *sweeper
	wg sync.WaitGroup

	mu   sync.Mutex
	jobs []*specJob
}

// next pops the highest-cap pending job for a worker, or nil when none
// remain (all jobs are enqueued before the workers start).
func (q *specQueue) next() *specJob {
	q.mu.Lock()
	defer q.mu.Unlock()
	for _, j := range q.jobs {
		if j.state == jobPending {
			j.state = jobRunning
			return j
		}
	}
	return nil
}

// finish records a worker's result and releases any waiter.
func (q *specQueue) finish(j *specJob, pt Point, err error, spend time.Duration) {
	q.mu.Lock()
	j.pt, j.err, j.spend = pt, err, spend
	j.state = jobDone
	q.mu.Unlock()
	close(j.done)
}

// covering returns a finished, error-free job whose result determines the
// frontier point at chain cap w, marking it used. Three cases:
//   - the job solved this exact cap (whatever its status — this is what
//     the one-worker sweep would have computed here);
//   - an optimal result at a looser cap Z ≥ w whose tightened cost ≤ w:
//     the ε-constraint solution is a step function of the cap, so the same
//     point is optimal at w;
//   - infeasibility proven at Z ≥ w: a tighter cap is infeasible too.
func (q *specQueue) covering(w float64) *specJob {
	q.mu.Lock()
	defer q.mu.Unlock()
	wk := capKey(w)
	for _, j := range q.jobs {
		if j.state != jobDone || j.canceled || j.err != nil || j.used {
			continue
		}
		jk := capKey(j.costCap)
		switch {
		case math.Abs(jk-wk) <= capEps || (math.IsInf(jk, 1) && math.IsInf(wk, 1)):
		case j.pt.Status == budget.StatusInfeasible && wk <= jk+capEps:
		case j.pt.Status == budget.StatusOptimal && j.pt.Design != nil &&
			j.pt.Cost() <= wk+capEps && wk <= jk+capEps:
		default:
			continue
		}
		j.used = true
		return j
	}
	return nil
}

// liveAt returns the pending or running job at exactly cap w, if any. The
// chain walk waits on it rather than solving inline: pending jobs sit at
// the top of the descending queue when the chain reaches their cap, so a
// worker picks them up promptly.
func (q *specQueue) liveAt(w float64) *specJob {
	q.mu.Lock()
	defer q.mu.Unlock()
	wk := capKey(w)
	for _, j := range q.jobs {
		if (j.state == jobPending || j.state == jobRunning) && !j.canceled &&
			(math.Abs(capKey(j.costCap)-wk) <= capEps || (math.IsInf(capKey(j.costCap), 1) && math.IsInf(wk, 1))) {
			return j
		}
	}
	return nil
}

// markUsed flags an awaited job's result as adopted.
func (q *specQueue) markUsed(j *specJob) {
	q.mu.Lock()
	j.used = true
	q.mu.Unlock()
}

// cancelRedundant cancels every live job whose cap a landed optimal point
// (tightened cost c, solved at chain cap w) proves redundant: solving at
// any cap in [c, w) would return this same point. Jobs below c stay — the
// chain may still need them.
func (q *specQueue) cancelRedundant(c, w float64) {
	q.mu.Lock()
	defer q.mu.Unlock()
	wk := capKey(w)
	for _, j := range q.jobs {
		if j.canceled || j.used || j.state == jobDone || j.state == jobWithdrawn {
			continue
		}
		jk := capKey(j.costCap)
		if jk >= c-capEps && jk < wk-capEps {
			j.canceled = true
			j.cancel()
			if j.state == jobPending {
				j.state = jobWithdrawn
				close(j.done)
			}
		}
	}
}

// cancelAll cancels every remaining job at teardown.
func (q *specQueue) cancelAll() {
	q.mu.Lock()
	defer q.mu.Unlock()
	for _, j := range q.jobs {
		if j.state == jobDone || j.state == jobWithdrawn {
			continue
		}
		j.canceled = true
		j.cancel()
		if j.state == jobPending {
			j.state = jobWithdrawn
			close(j.done)
		}
	}
}

// speculativeCaps enumerates the candidate chain caps: every distinct
// achievable cost level l (subset sums of processor and link costs) at or
// below the sweep's starting region contributes the cap l − CostStep that
// the chain would set after landing a point of cost l. The grid is purely
// a performance hint — caps it misses are solved inline by the chain walk.
func (sw *sweeper) speculativeCaps(ctx context.Context, start float64) []float64 {
	g, pool, topo := sw.fam.G, sw.fam.Pool, sw.fam.Topo
	if sw.fam.ModelOpts.Memory {
		return nil // memory cost is continuous; no finite level grid
	}
	lib := pool.Library()
	var items []float64
	total := 0.0
	for _, p := range pool.Procs() {
		c := pool.Cost(p.ID)
		items = append(items, c)
		total += c
	}
	// Links enter by count, not identity: a design pays per selected link
	// and links of one topology usually share one cost, so the achievable
	// link contribution is k·c for each distinct positive cost c and small
	// k. Frontier designs route few transfers, so k is capped — levels the
	// cap misses just fall back to inline solves.
	n := pool.NumProcs()
	linkCosts := map[float64]struct{}{}
	for l := 0; l < topo.NumLinks(n); l++ {
		if c := topo.LinkCost(lib, arch.LinkID(l)); c > 0 {
			linkCosts[c] = struct{}{}
		}
	}
	maxLinks := topo.NumLinks(n)
	if k := len(g.Arcs()); k < maxLinks {
		maxLinks = k
	}
	if maxLinks > 8 {
		maxLinks = 8
	}
	for c := range linkCosts {
		for i := 0; i < maxLinks; i++ {
			items = append(items, c)
			total += c
		}
	}
	if len(items) > 18 {
		return nil // too many distinct items to enumerate subset sums
	}
	sums := map[float64]struct{}{}
	sums[0] = struct{}{}
	for _, it := range items {
		if it <= 0 {
			continue
		}
		add := make([]float64, 0, len(sums))
		for s := range sums {
			add = append(add, s+it)
		}
		for _, s := range add {
			sums[s] = struct{}{}
		}
		if len(sums) > 4096 {
			return nil
		}
	}
	// The chain starts at StartCap (or, uncapped, at the first point's
	// tightened cost, estimated by the greedy heuristic); levels above the
	// start can only re-derive the first point.
	limit := start
	if limit <= 0 {
		if d := heur.SynthesizeOnPool(ctx, g, pool, topo, 0); d != nil {
			limit = d.Cost
		} else {
			limit = total
		}
	}
	startKey := capKey(start)
	seen := map[float64]struct{}{}
	var caps []float64
	for s := range sums {
		if s <= 0 || s > limit+capEps {
			continue
		}
		c := s - CostStep
		if c <= 0 || math.Abs(capKey(c)-startKey) <= capEps {
			continue
		}
		if _, ok := seen[c]; ok {
			continue
		}
		seen[c] = struct{}{}
		caps = append(caps, c)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(caps)))
	if len(caps) > maxSpeculativeJobs {
		caps = caps[:maxSpeculativeJobs]
	}
	return caps
}

// speculate starts the speculative queue for a chain that begins at cap
// start: the chain's first cap plus the predicted grid, solved by
// SweepWorkers workers, highest cap first.
func (sw *sweeper) speculate(ctx context.Context, start float64) *specQueue {
	q := &specQueue{sw: sw}
	addJob := func(c float64, spec bool) {
		jctx, cancel := context.WithCancel(ctx)
		q.jobs = append(q.jobs, &specJob{
			costCap: c, spec: spec,
			ctx: jctx, cancel: cancel, done: make(chan struct{}),
		})
	}
	addJob(start, false)
	for _, c := range sw.speculativeCaps(ctx, start) {
		addJob(c, true)
	}
	sort.SliceStable(q.jobs, func(i, k int) bool {
		return capKey(q.jobs[i].costCap) > capKey(q.jobs[k].costCap)
	})
	for i := 0; i < sw.opts.SweepWorkers; i++ {
		q.wg.Add(1)
		go func() {
			defer q.wg.Done()
			for j := q.next(); j != nil; j = q.next() {
				start := time.Now()
				pt, err := sw.point(j.ctx, j.costCap)
				q.finish(j, pt, err, time.Since(start))
			}
		}()
	}
	return q
}

// resolve produces the frontier point at chain cap w: a covering
// completed job, else the in-flight job at exactly w, else an inline
// solve. A landed optimal point cancels the live jobs it proves redundant.
func (q *specQueue) resolve(ctx context.Context, w float64) (Point, error) {
	j := q.covering(w)
	if j == nil {
		if j = q.liveAt(w); j != nil {
			<-j.done
			if j.err == nil && !j.canceled {
				q.markUsed(j)
			} else {
				// A failed (or late-canceled) job is retried inline once; a
				// second failure propagates with the partial frontier.
				j = nil
			}
		}
	}
	var pt Point
	if j != nil {
		pt = j.pt
		q.sw.fam.Telemetry.Emit(telemetry.EvPoint, j.spend.Seconds(), pt.Status.String())
	} else {
		var err error
		if pt, err = q.sw.inline(ctx, w); err != nil {
			return pt, err
		}
	}
	if pt.Status == budget.StatusOptimal {
		q.cancelRedundant(pt.Cost(), w)
	}
	return pt, nil
}

// close cancels every remaining job, joins the workers, and classifies
// each speculative job exactly once: hit, retargeted, or wasted.
func (q *specQueue) close() {
	q.cancelAll()
	q.wg.Wait()
	tel := q.sw.fam.Telemetry
	for _, j := range q.jobs {
		if !j.spec {
			continue
		}
		switch {
		case j.used:
			tel.Inc(telemetry.CtrSpeculativeHits)
			tel.Emit(telemetry.EvSpeculate, j.costCap, "hit")
		case j.canceled:
			tel.Inc(telemetry.CtrSpeculativeRetargeted)
			tel.Emit(telemetry.EvSpeculate, j.costCap, "retargeted")
		default:
			tel.Inc(telemetry.CtrSpeculativeWasted)
			tel.Emit(telemetry.EvSpeculate, j.costCap, "wasted")
		}
	}
}
