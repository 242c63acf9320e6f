package server

// The chaos suite: fault injection (solver panics, LP failpoints),
// hostile clients (disconnects, malformed bodies), saturation storms,
// and shutdown under load. Every test runs under -race in CI
// (the server-race job) and asserts the service invariants:
//
//   - every HTTP response body is well-formed JSON, whatever happened;
//   - no request outcome is lost (admitted == served+canceled+errors);
//   - health probes answer while workers are wedged;
//   - shutdown drains without deadlocks or goroutine leaks (the
//     newTestServer cleanup runs leakcheck around every test).

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sos"
	"sos/internal/lp"
	"sos/internal/telemetry"
)

// blockingHooks parks every MILP node on ch — a wedge that holds a
// worker mid-solve until the test releases it.
func blockingHooks(ch chan struct{}) *sos.SolverHooks {
	return &sos.SolverHooks{OnNode: func(int) { <-ch }}
}

// panicHooks crashes the MILP search at the first node.
func panicHooks() *sos.SolverHooks {
	return &sos.SolverHooks{OnNode: func(int) { panic("chaos: injected node crash") }}
}

// TestChaosPanicDegrades: a MILP worker crash on an anytime request must
// degrade to the next rung and still serve a correct result — honestly
// labeled — with the panic counted.
func TestChaosPanicDegrades(t *testing.T) {
	s, ts := newTestServer(t, Config{Hooks: panicHooks()})
	code, _, r := post(t, ts.URL+"/v1/solve", solveBody(`"engine": "milp"`))
	if code != http.StatusOK {
		t.Fatalf("code %d, want 200 (%+v)", code, r)
	}
	if r.Status != "optimal" || r.Rung == "milp" || !r.Degraded {
		t.Fatalf("status %q rung %q degraded %v, want optimal on a lower rung, degraded", r.Status, r.Rung, r.Degraded)
	}
	if got := s.tel.Get(telemetry.CtrReqPanics); got < 1 {
		t.Errorf("req_panics %d, want >= 1", got)
	}
}

// TestChaosPanicNoDegradation: the same crash with anytime=false must be
// a well-formed JSON 500 — and must not kill the worker: the next
// request is served normally.
func TestChaosPanicNoDegradation(t *testing.T) {
	s, ts := newTestServer(t, Config{Hooks: panicHooks()})
	code, _, r := post(t, ts.URL+"/v1/solve", solveBody(`"engine": "milp", "anytime": false`))
	if code != http.StatusInternalServerError || r.Status != OutcomeError {
		t.Fatalf("code %d status %q, want 500 error", code, r.Status)
	}
	if !strings.Contains(r.Error, "panic") {
		t.Errorf("error %q does not mention the panic", r.Error)
	}
	if got := s.tel.Get(telemetry.CtrReqPanics); got < 1 {
		t.Errorf("req_panics %d, want >= 1", got)
	}
	// The pool survived: a non-MILP request works.
	code, _, r = post(t, ts.URL+"/v1/solve", solveBody(`"engine": "combinatorial"`))
	if code != http.StatusOK || r.Status != "optimal" {
		t.Fatalf("post-panic solve: code %d status %q, want 200 optimal", code, r.Status)
	}
}

// TestChaosLPFailpoint: starving every LP relaxation (ForceIterLimit=1)
// cripples the MILP rung; the ladder must still deliver via a lower
// rung.
func TestChaosLPFailpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Hooks: &sos.SolverHooks{LP: &lp.Hooks{ForceIterLimit: 1}},
	})
	code, _, r := post(t, ts.URL+"/v1/solve", solveBody(`"engine": "milp", "budget_ms": 500`))
	if code != http.StatusOK {
		t.Fatalf("code %d, want 200 (%+v)", code, r)
	}
	if !r.hasDesign() {
		t.Fatalf("no design (status %q, err %q)", r.Status, r.Error)
	}
}

// TestChaosClientDisconnect: a client that walks away must cancel its
// request. The queued case is fully deterministic: one job wedges the
// single worker, a second job's client disconnects while queued, and the
// worker must then refuse to burn time on it — outcome "canceled", never
// delivered, counted once. The server keeps serving afterwards.
func TestChaosClientDisconnect(t *testing.T) {
	block := make(chan struct{})
	s, ts := newTestServer(t, Config{Workers: 1, Hooks: blockingHooks(block)})

	// Job A wedges the worker.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		post(t, ts.URL+"/v1/solve", solveBody(`"engine": "milp", "anytime": false`))
	}()
	waitFor(t, func() bool { return s.gov.Active() == 1 })

	// Job B queues behind it, then its client vanishes.
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/solve",
		strings.NewReader(solveBody("")))
	req.Header.Set("Content-Type", "application/json")
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		errc <- err
	}()
	waitFor(t, func() bool { occ, _ := s.Queue(); return occ == 1 })
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("expected the client request to fail after cancel")
	}
	// The client is gone, but the server notices asynchronously (its
	// connection reader reports the close). Hold the wedge until B's
	// handler has propagated the cancel into the queued job, so the
	// worker deterministically dequeues an already-dead request.
	waitFor(t, func() bool {
		s.jobs.mu.Lock()
		defer s.jobs.mu.Unlock()
		for _, j := range s.jobs.jobs {
			if j.currentState() == stateQueued && j.ctx.Err() != nil {
				return true
			}
		}
		return false
	})

	// Unwedge: A completes; the worker reaches B, sees its dead context,
	// and records the cancel instead of solving into the void.
	close(block)
	wg.Wait()
	waitFor(t, func() bool { return s.tel.Get(telemetry.CtrReqCanceled) == 1 })

	// Probes stayed alive and the next request is served.
	code, _, r := post(t, ts.URL+"/v1/solve", solveBody(`"engine": "combinatorial"`))
	if code != http.StatusOK || r.Status != "optimal" {
		t.Fatalf("post-disconnect solve: code %d status %q", code, r.Status)
	}
}

// TestChaosMalformedStorm replays the specfile fuzz corpus (and worse)
// through the API: every answer must be a 4xx with a JSON body, and the
// server must stay healthy throughout.
func TestChaosMalformedStorm(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	corpus := []string{
		``, `{`, `nil`, "\x00\x01\x02", `[]`, `"spec"`,
		`{"spec": null}`,
		`{"spec": {}}`,
		`{"spec": {"graph": null, "library": null}}`,
		`{"spec": {"graph": {"subtasks": [{"name": "a"}, {"name": "a"}]}, "library": {"types": [{"name": "t", "exec": [1]}]}}}`,
		`{"spec": {"graph": {"subtasks": [{"name": "a"}]}, "library": {"types": [{"name": "t", "exec": [null]}]}}}`,
		`{"spec": {"graph": {"subtasks": [{"name": "a"}], "arcs": [{"src": "a", "dst": "zzz"}]}, "library": {"types": [{"name": "t", "exec": [1]}]}}}`,
		solveBody(`"budget_ms": -9223372036854775808`),
		solveBody(`"sweep_workers": 1e309`),
	}
	var wg sync.WaitGroup
	var non4xx atomic.Int64
	for _, doc := range corpus {
		for _, path := range []string{"/v1/solve", "/v1/sweep"} {
			wg.Add(1)
			go func(path, doc string) {
				defer wg.Done()
				resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(doc))
				if err != nil {
					t.Errorf("POST: %v", err)
					return
				}
				defer resp.Body.Close()
				raw, _ := io.ReadAll(resp.Body)
				if !json.Valid(raw) {
					t.Errorf("%s %q: body not JSON: %q", path, doc, raw)
				}
				if resp.StatusCode < 400 || resp.StatusCode >= 500 {
					non4xx.Add(1)
					t.Errorf("%s %q: code %d, want 4xx", path, doc, resp.StatusCode)
				}
			}(path, doc)
		}
	}
	wg.Wait()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after storm: %v %v", resp, err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// TestChaosShutdownDrainsInFlight: SIGTERM semantics. A wedged solve is
// past its drain grace: Shutdown must cancel it, the job must complete
// (canceled, context observed on return), and Shutdown must return
// without deadlock while probes keep answering.
func TestChaosShutdownDrainsInFlight(t *testing.T) {
	block := make(chan struct{})
	s, ts := newTestServer(t, Config{
		Hooks: blockingHooks(block), DrainGrace: 50 * time.Millisecond,
	})

	done := make(chan *wireResponse, 1)
	go func() {
		_, _, r := post(t, ts.URL+"/v1/solve", solveBody(`"engine": "milp", "anytime": false`))
		done <- r
	}()
	waitFor(t, func() bool { return s.gov.Active() == 1 })

	// Shutdown while the solve is wedged. The grace timer will cancel the
	// job context; the hook still holds the node, so release it shortly
	// after — as if the solver reached its next cancellation point.
	time.AfterFunc(100*time.Millisecond, func() { close(block) })
	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shutdownErr <- s.Shutdown(ctx)
	}()

	// Probes answer during the drain; readyz reports not-ready.
	waitFor(t, func() bool { return s.Draining() })
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz while draining: code %d, want 503", resp.StatusCode)
	}

	// New work is refused with a JSON 503.
	code, _, r := post(t, ts.URL+"/v1/solve", solveBody(""))
	if code != http.StatusServiceUnavailable || r.Status != OutcomeDraining {
		t.Errorf("admission while draining: code %d status %q, want 503 draining", code, r.Status)
	}

	if err := <-shutdownErr; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	inflight := <-done
	if inflight.Status != OutcomeCanceled && inflight.Status != "feasible" && inflight.Status != "optimal" {
		t.Errorf("in-flight outcome %q, want canceled or a served status", inflight.Status)
	}
}

// TestChaosStorm is the mixed-fault soak: a queue-full storm of slow
// solves at several times capacity, with tight deadlines, against a
// 1-worker server. Invariants: no 5xx, every body JSON, and the
// outcome ledger balances.
func TestChaosStorm(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Workers: 1, QueueDepth: 2,
		Hooks: &sos.SolverHooks{OnNode: func(int) { time.Sleep(200 * time.Microsecond) }},
	})
	const n = 24
	var wg sync.WaitGroup
	codes := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, _, _ := post(t, ts.URL+"/v1/solve",
				solveBody(`"engine": "milp", "budget_ms": 20, "deadline_ms": 250`))
			codes[i] = code
		}(i)
	}
	wg.Wait()

	var ok200, shed429 int
	for _, c := range codes {
		switch {
		case c == http.StatusOK:
			ok200++
		case c == http.StatusTooManyRequests:
			shed429++
		case c >= 500:
			t.Errorf("storm produced a %d", c)
		}
	}
	if ok200 == 0 {
		t.Error("storm: nothing served")
	}
	if ok200+shed429 != n {
		t.Errorf("storm ledger: %d ok + %d shed != %d", ok200, shed429, n)
	}
	admitted := s.tel.Get(telemetry.CtrReqAdmitted)
	served := s.tel.Get(telemetry.CtrReqServed)
	shed := s.tel.Get(telemetry.CtrReqShed)
	canceled := s.tel.Get(telemetry.CtrReqCanceled)
	if admitted+shed < n {
		t.Errorf("counters lost requests: admitted %d + shed %d < %d", admitted, shed, n)
	}
	if served+canceled+shed < n {
		t.Errorf("outcome ledger: served %d + canceled %d + shed %d < %d", served, canceled, shed, n)
	}
	t.Logf("storm: admitted=%d served=%d shed=%d degraded=%d canceled=%d",
		admitted, served, shed, s.tel.Get(telemetry.CtrReqDegraded), canceled)
}

// TestChaosPanicDegradesOnce: the request of TestChaosPanicDegrades walks
// one family, so its crashed MILP rung is one panic and its step down to
// the combinatorial rung one degradation.
func TestChaosPanicDegradesOnce(t *testing.T) {
	s, ts := newTestServer(t, Config{Hooks: panicHooks()})
	code, _, r := post(t, ts.URL+"/v1/solve", solveBody(`"engine": "milp"`))
	if code != http.StatusOK || r.Status != "optimal" || r.Rung != "combinatorial" {
		t.Fatalf("code %d status %q rung %q, want 200 optimal combinatorial", code, r.Status, r.Rung)
	}
	if got := s.tel.Get(telemetry.CtrDegrades); got != 1 {
		t.Errorf("degrades %d, want 1", got)
	}
	if got := s.tel.Get(telemetry.CtrReqPanics); got != 1 {
		t.Errorf("req_panics %d, want 1", got)
	}
}
