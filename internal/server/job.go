package server

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"sos"
)

// jobKind distinguishes the two solve shapes.
type jobKind int

const (
	kindSolve jobKind = iota
	kindSweep
	kindBatch
)

func (k jobKind) String() string {
	switch k {
	case kindSweep:
		return "sweep"
	case kindBatch:
		return "batch"
	}
	return "solve"
}

// Job states, exposed on GET /v1/jobs/{id}.
const (
	stateQueued  = "queued"
	stateRunning = "running"
	stateDone    = "done"
)

// job is one admitted request: its translated spec, its wall-clock
// deadline, its cancelable context, and the slot its response lands in.
type job struct {
	id       string
	kind     jobKind
	spec     sos.Spec
	specs    []sos.Spec    // kindBatch only: the translated batch members
	budget   time.Duration // requested (clamped) solve budget; 0 = none
	deadline time.Time     // response deadline; zero = none
	anytime  bool          // degradation allowed
	enqueued time.Time

	ctx    context.Context
	cancel context.CancelFunc

	state atomic.Value // stateQueued | stateRunning | stateDone

	done chan struct{} // closed once resp is set
	resp *Response     // written exactly once, before close(done)
}

func (s *Server) newJob(kind jobKind, spec sos.Spec, budget time.Duration, deadline time.Time, anytime bool) *job {
	ctx, cancel := context.WithCancel(context.Background())
	j := &job{
		id:       fmt.Sprintf("j-%d-%d", s.start.UnixNano()%1e9, s.seq.Add(1)),
		kind:     kind,
		spec:     spec,
		budget:   budget,
		deadline: deadline,
		anytime:  anytime,
		enqueued: time.Now(),
		ctx:      ctx,
		cancel:   cancel,
		done:     make(chan struct{}),
	}
	j.state.Store(stateQueued)
	return j
}

func (j *job) setState(st string) { j.state.Store(st) }

func (j *job) currentState() string {
	if v := j.state.Load(); v != nil {
		return v.(string)
	}
	return stateQueued
}

// complete publishes the response and releases the job's context
// resources. Exactly one caller (the worker that ran the job).
func (j *job) complete(resp *Response) {
	j.resp = resp
	j.setState(stateDone)
	close(j.done)
	j.cancel()
}

// registry retains jobs for GET /v1/jobs/{id} and lets shutdown cancel
// everything still open. Finished jobs are evicted FIFO beyond keep.
type registry struct {
	mu    sync.Mutex
	jobs  map[string]*job
	order []string
	keep  int
}

func newRegistry(keep int) *registry {
	return &registry{jobs: make(map[string]*job), keep: keep}
}

func (r *registry) add(j *job) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.jobs[j.id] = j
	r.order = append(r.order, j.id)
	// Evict oldest *finished* jobs beyond the retention cap; open jobs
	// are never evicted (their handlers and cancellation depend on them).
	for len(r.order) > r.keep {
		evicted := false
		for i, id := range r.order {
			if jj, ok := r.jobs[id]; !ok || jj.currentState() == stateDone {
				delete(r.jobs, id)
				r.order = append(r.order[:i], r.order[i+1:]...)
				evicted = true
				break
			}
		}
		if !evicted {
			break // everything retained is still open
		}
	}
}

func (r *registry) get(id string) *job {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.jobs[id]
}

// cancelOpen cancels the context of every job that has not completed —
// the drain-grace hammer. Idempotent.
func (r *registry) cancelOpen() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, j := range r.jobs {
		if j.currentState() != stateDone {
			j.cancel()
		}
	}
}
