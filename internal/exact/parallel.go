package exact

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sos/internal/arch"
	"sos/internal/budget"
	"sos/internal/schedule"
	"sos/internal/taskgraph"
)

// sharedIncumbent is the cross-worker best-solution state. The pruning
// bounds (perf, cost) are published through atomics so workers read them
// without locking on every node; updates take the mutex and re-check.
type sharedIncumbent struct {
	mu       sync.Mutex
	perfBits atomic.Uint64 // math.Float64bits of best makespan
	costBits atomic.Uint64 // math.Float64bits of best (tie or objective) cost
	design   *schedule.Design
}

func newSharedIncumbent() *sharedIncumbent {
	si := &sharedIncumbent{}
	si.perfBits.Store(math.Float64bits(math.Inf(1)))
	si.costBits.Store(math.Float64bits(math.Inf(1)))
	return si
}

func (si *sharedIncumbent) perf() float64 { return math.Float64frombits(si.perfBits.Load()) }
func (si *sharedIncumbent) cost() float64 { return math.Float64frombits(si.costBits.Load()) }

// offer installs a candidate if it improves on the current best under the
// given objective. Returns whether it was accepted.
func (si *sharedIncumbent) offer(d *schedule.Design, cost float64, obj Objective) bool {
	si.mu.Lock()
	defer si.mu.Unlock()
	curPerf := si.perf()
	curCost := si.cost()
	var better bool
	if obj == MinMakespan {
		better = d.Makespan < relCut(curPerf, incumbentTol) ||
			(d.Makespan <= relPad(curPerf, incumbentTol) && cost < relCut(curCost, incumbentTol))
	} else {
		better = cost < relCut(curCost, incumbentTol)
	}
	if !better {
		return false
	}
	si.design = d
	si.perfBits.Store(math.Float64bits(d.Makespan))
	si.costBits.Store(math.Float64bits(cost))
	return true
}

// SynthesizeParallel runs the combinatorial search across workers
// goroutines (runtime.NumCPU() when workers <= 0). The top of the mapping
// tree is expanded breadth-first into prefixes, which workers then search
// depth-first with a shared incumbent. Results are identical to
// Synthesize; only wall time changes.
func SynthesizeParallel(ctx context.Context, g *taskgraph.Graph, pool *arch.Instances, topo arch.Topology, opts Options, workers int) (*Result, error) {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers == 1 {
		return Synthesize(ctx, g, pool, topo, opts)
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if err := pool.Library().Validate(g); err != nil {
		return nil, err
	}
	if opts.Objective == MinCost && opts.Deadline <= 0 {
		return nil, errMinCostNeedsDeadline
	}
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}

	// Expand prefixes breadth-first until there are enough work units.
	base := newSearch(g, pool, topo, opts, order)
	rootLB := base.rootBound()
	type prefix []arch.ProcID
	prefixes := []prefix{{}}
	targetUnits := 8 * workers
	depth := 0
	for len(prefixes) < targetUnits && depth < len(order) {
		task := order[depth]
		var next []prefix
		for _, pf := range prefixes {
			for i, d := range pf {
				base.mapping[order[i]] = d
			}
			for _, cand := range base.candidates(task) {
				np := make(prefix, len(pf)+1)
				copy(np, pf)
				np[len(pf)] = cand
				next = append(next, np)
			}
			for i := range pf {
				base.mapping[order[i]] = -1
			}
		}
		prefixes = next
		depth++
	}

	si := newSharedIncumbent()
	var stop atomic.Bool
	var nodes, sched atomic.Int64
	var deadline time.Time
	if opts.TimeLimit > 0 {
		deadline = time.Now().Add(opts.TimeLimit)
	}

	var errMu sync.Mutex
	var firstErr error
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
		stop.Store(true)
	}

	work := make(chan prefix)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			// Each prefix is searched inside its own recover scope so a
			// panicking subtree turns into a recorded error while the
			// worker keeps draining the unbuffered work channel — if it
			// died instead, the feeder could block forever on a send.
			for pf := range work {
				if stop.Load() {
					continue
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							fail(fmt.Errorf("exact: worker %w: %v", budget.ErrPanic, r))
						}
					}()
					s := newSearch(g, pool, topo, opts, order)
					s.ctx = ctx
					s.deadline = deadline
					s.shared = si
					s.sharedStop = &stop
					s.worker = id
					for i, d := range pf {
						s.mapping[order[i]] = d
					}
					s.dfs(len(pf))
					nodes.Add(int64(s.nodes))
					sched.Add(int64(s.schedNodes))
					s.foldTelemetry()
					if s.budgetHit {
						stop.Store(true)
					}
				}()
			}
		}(w)
	}
	for _, pf := range prefixes {
		if stop.Load() {
			break
		}
		work <- pf
	}
	close(work)
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}

	objVal := 0.0
	if si.design != nil {
		if opts.Objective == MinMakespan {
			objVal = si.design.Makespan
		} else {
			objVal = si.cost()
		}
	}
	return finishResult(ctx, si.design, objVal, !stop.Load(),
		rootLB, int(nodes.Load()), int(sched.Load())), nil
}
