package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"sos/internal/leakcheck"
	"sos/internal/telemetry"
)

// testSpec is a 2-subtask, 2-type problem every engine solves in well
// under a millisecond (the specfile test fixture).
const testSpec = `{
  "graph": {
    "name": "t",
    "subtasks": [{"name": "A"}, {"name": "B"}],
    "arcs": [{"src": "A", "dst": "B", "volume": 2, "fa": 1}]
  },
  "library": {
    "name": "lib", "link_cost": 1, "remote_delay": 1, "local_delay": 0,
    "types": [
      {"name": "p1", "cost": 3, "exec": [1, 2]},
      {"name": "p2", "cost": 2, "exec": [null, 1]}
    ]
  },
  "pool": [2, 1]
}`

// newTestServer starts a Server plus an httptest front end and registers
// a full drain + goroutine-leak check as cleanup, so every handler test
// doubles as a shutdown-cleanliness test.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	leakcheck.Check(t)
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s, ts
}

// wireResponse is the client's-eye view of a Response. Result and
// Frontier stay raw: design JSON is a one-way wire format (decoding a
// design needs the problem context), so clients treat it as a document.
type wireResponse struct {
	ID                string            `json:"id"`
	Kind              string            `json:"kind"`
	Status            string            `json:"status"`
	Rung              string            `json:"rung"`
	Degraded          bool              `json:"degraded"`
	Raced             bool              `json:"raced"`
	Result            json.RawMessage   `json:"result"`
	Frontier          []json.RawMessage `json:"frontier"`
	RetryAfterSeconds int               `json:"retry_after_seconds"`
	Error             string            `json:"error"`
}

func (r *wireResponse) hasDesign() bool {
	return strings.Contains(string(r.Result), `"design"`)
}

// post sends a JSON body and decodes the JSON answer — which must always
// parse, whatever the status code.
func post(t *testing.T, url string, body string) (int, http.Header, *wireResponse) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	var r wireResponse
	if err := json.Unmarshal(raw, &r); err != nil {
		t.Fatalf("response is not JSON (code %d): %v\n%s", resp.StatusCode, err, raw)
	}
	return resp.StatusCode, resp.Header, &r
}

func solveBody(extra string) string {
	if extra != "" {
		extra = ", " + extra
	}
	return fmt.Sprintf(`{"spec": %s%s}`, testSpec, extra)
}

func TestSolveBasic(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, _, r := post(t, ts.URL+"/v1/solve", solveBody(""))
	if code != http.StatusOK {
		t.Fatalf("code %d, want 200 (%+v)", code, r)
	}
	if r.Status != "optimal" || !r.hasDesign() {
		t.Fatalf("status %q result %s, want optimal with a design", r.Status, r.Result)
	}
	if r.Degraded {
		t.Error("unloaded solve reported degraded")
	}
	if r.ID == "" || r.Kind != "solve" {
		t.Errorf("id %q kind %q", r.ID, r.Kind)
	}
}

func TestSolveCostObjective(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, _, r := post(t, ts.URL+"/v1/solve",
		solveBody(`"objective": "cost", "deadline": 10`))
	if code != http.StatusOK || r.Status != "optimal" {
		t.Fatalf("code %d status %q, want 200 optimal", code, r.Status)
	}
}

// TestSolveHeuristicMissesDeadline: the greedy design of testSpec takes 3
// time units, so a heuristic request under deadline 2 has no answer. The
// honest reply is budget-exhausted with no design — neither a feasible
// design that breaks the deadline nor a claim of infeasibility.
func TestSolveHeuristicMissesDeadline(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, _, r := post(t, ts.URL+"/v1/solve",
		solveBody(`"engine": "heuristic", "objective": "cost", "deadline": 2`))
	if code != http.StatusOK {
		t.Fatalf("code %d, want 200 (%+v)", code, r)
	}
	if r.Status != "budget-exhausted" || r.hasDesign() {
		t.Fatalf("status %q result %s, want budget-exhausted without a design", r.Status, r.Result)
	}
}

func TestSolveValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := map[string]string{
		"empty body":            ``,
		"not json":              `{`,
		"unknown field":         `{"speck": {}}`,
		"missing spec":          `{"objective": "cost"}`,
		"invalid spec":          `{"spec": {"graph": null, "library": null}}`,
		"unknown objective":     solveBody(`"objective": "latency"`),
		"cost without deadline": solveBody(`"objective": "cost"`),
		"unknown engine":        solveBody(`"engine": "quantum"`),
		"unknown topology":      solveBody(`"topology": "torus"`),
		"negative budget":       solveBody(`"budget_ms": -1`),
		"negative deadline":     solveBody(`"deadline_ms": -5`),
		"removed sweep_workers": solveBody(`"sweep_workers": 2`),
	}
	for name, body := range cases {
		code, _, r := post(t, ts.URL+"/v1/solve", body)
		if code != http.StatusBadRequest {
			t.Errorf("%s: code %d, want 400 (%+v)", name, code, r)
		}
		if r.Error == "" {
			t.Errorf("%s: missing error message", name)
		}
	}
}

func TestSweepBasic(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, _, r := post(t, ts.URL+"/v1/sweep", solveBody(""))
	if code != http.StatusOK {
		t.Fatalf("code %d, want 200 (%+v)", code, r)
	}
	if len(r.Frontier) == 0 {
		t.Fatalf("empty frontier (status %q, err %q)", r.Status, r.Error)
	}
	if r.Kind != "sweep" {
		t.Errorf("kind %q, want sweep", r.Kind)
	}
}

func TestJobLookup(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	_, _, r := post(t, ts.URL+"/v1/solve", solveBody(""))

	resp, err := http.Get(ts.URL + "/v1/jobs/" + r.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rec wireResponse
	if err := json.NewDecoder(resp.Body).Decode(&rec); err != nil {
		t.Fatalf("job record not JSON: %v", err)
	}
	if resp.StatusCode != http.StatusOK || rec.ID != r.ID || rec.Status != "optimal" {
		t.Fatalf("record code %d id %q status %q", resp.StatusCode, rec.ID, rec.Status)
	}

	missing, err := http.Get(ts.URL + "/v1/jobs/nope")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, missing.Body)
	missing.Body.Close()
	if missing.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: code %d, want 404", missing.StatusCode)
	}
}

func TestHealthAndStats(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: code %d, want 200", path, resp.StatusCode)
		}
	}
	post(t, ts.URL+"/v1/solve", solveBody(""))
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		QueueDepth int              `json:"queue_depth"`
		Counters   map[string]int64 `json:"counters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatalf("stats not JSON: %v", err)
	}
	if stats.Counters["req_admitted"] < 1 || stats.Counters["req_served"] < 1 {
		t.Errorf("counters %v, want >=1 admitted and served", stats.Counters)
	}
}

func TestBodyLimit(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 512})
	big := solveBody(fmt.Sprintf(`"engine": %q`, strings.Repeat("x", 2048)))
	code, _, r := post(t, ts.URL+"/v1/solve", big)
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("code %d, want 413 (%+v)", code, r)
	}
}

// TestAnytimeFalseNoDegradation pins the opt-out: anytime=false must
// never step down the ladder, even out of budget — the honest answer is
// budget-exhausted on the requested engine.
func TestAnytimeFalseNoDegradation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, _, r := post(t, ts.URL+"/v1/solve",
		solveBody(`"engine": "milp", "anytime": false`))
	if code != http.StatusOK {
		t.Fatalf("code %d, want 200", code)
	}
	if r.Degraded {
		t.Errorf("anytime=false response reported degraded")
	}
	if r.Status == "optimal" && r.Rung != "milp" {
		t.Errorf("rung %q, want milp", r.Rung)
	}
}

// TestRetryAfterHeader pins the backpressure contract deterministically:
// a blocked worker plus a full queue makes the next request an immediate
// 429 carrying a Retry-After hint.
func TestRetryAfterHeader(t *testing.T) {
	block := make(chan struct{})
	s, ts := newTestServer(t, Config{
		Workers: 1, QueueDepth: 1, RetryAfter: 2 * time.Second,
		Hooks: blockingHooks(block),
	})
	body := solveBody(`"engine": "milp", "anytime": false`)

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ { // one occupies the worker, one the queue
		wg.Add(1)
		go func() {
			defer wg.Done()
			post(t, ts.URL+"/v1/solve", body)
		}()
		waitFor(t, func() bool {
			occ, _ := s.Queue()
			return s.gov.Active()+occ == i+1
		})
	}

	code, hdr, r := post(t, ts.URL+"/v1/solve", body)
	if code != http.StatusTooManyRequests || r.Status != OutcomeShed {
		t.Fatalf("code %d status %q, want 429 shed", code, r.Status)
	}
	if hdr.Get("Retry-After") != "2" {
		t.Errorf("Retry-After %q, want \"2\"", hdr.Get("Retry-After"))
	}
	close(block)
	wg.Wait()
	if got := s.tel.Get(telemetry.CtrReqShed); got != 1 {
		t.Errorf("req_shed %d, want 1", got)
	}
}

// waitFor polls a condition with a deadline — the clock-free way to
// sequence against the worker pool.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in 10s")
		}
		time.Sleep(time.Millisecond)
	}
}
