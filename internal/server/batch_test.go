package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"sos"
	"sos/internal/telemetry"
)

// wireBatchResponse adds the batch slots to the client's-eye response.
type wireBatchResponse struct {
	wireResponse
	Batch []struct {
		Status string          `json:"status"`
		Raced  bool            `json:"raced"`
		Rung   string          `json:"rung"`
		Result json.RawMessage `json:"result"`
		Error  string          `json:"error"`
	} `json:"batch"`
}

func postBatch(t *testing.T, url, body string) (int, *wireBatchResponse) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var r wireBatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
		t.Fatalf("response is not JSON (code %d): %v", resp.StatusCode, err)
	}
	return resp.StatusCode, &r
}

func newCachedServer(t *testing.T, cfg Config) (*Server, string, *sos.Cache) {
	t.Helper()
	if cfg.Telemetry == nil {
		cfg.Telemetry = telemetry.New(nil)
	}
	cache, err := sos.NewCache(sos.CacheOptions{Telemetry: cfg.Telemetry})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cache.Close() })
	cfg.Cache = cache
	s, ts := newTestServer(t, cfg)
	return s, ts.URL, cache
}

// TestBatchBasic: duplicated and cap-varied members come back
// positionally aligned, each with a proof, duplicates served from cache.
func TestBatchBasic(t *testing.T) {
	_, url, cache := newCachedServer(t, Config{})
	body := fmt.Sprintf(`{"requests": [
		{"spec": %s, "cost_cap": 8},
		{"spec": %s, "cost_cap": 5},
		{"spec": %s, "cost_cap": 8},
		{"spec": %s, "cost_cap": 1}
	]}`, testSpec, testSpec, testSpec, testSpec)
	code, r := postBatch(t, url+"/v1/batch", body)
	if code != http.StatusOK {
		t.Fatalf("code %d (%+v)", code, r)
	}
	if r.Kind != "batch" || len(r.Batch) != 4 {
		t.Fatalf("kind %q, %d slots", r.Kind, len(r.Batch))
	}
	if r.Status != "optimal" {
		t.Fatalf("batch status %q, want optimal (all proofs)", r.Status)
	}
	for i, e := range []string{"optimal", "optimal", "optimal", "infeasible"} {
		if r.Batch[i].Status != e {
			t.Fatalf("slot %d status %q, want %q", i, r.Batch[i].Status, e)
		}
	}
	if !strings.Contains(string(r.Batch[2].Result), `"cached":true`) {
		t.Errorf("duplicate slot 2 not served from cache: %s", r.Batch[2].Result)
	}
	if cache.Len() == 0 {
		t.Error("batch proofs did not land in the shared cache")
	}
}

// TestBatchRacedSlots: under -race-engines every solved member of a MILP
// batch races, like a solve, and its slot names the winning rung.
func TestBatchRacedSlots(t *testing.T) {
	_, url, _ := newCachedServer(t, Config{RaceEngines: true})
	body := fmt.Sprintf(`{"requests": [
		{"spec": %s, "engine": "milp", "cost_cap": 8},
		{"spec": %s, "engine": "milp", "cost_cap": 4}
	]}`, testSpec, testSpec)
	code, r := postBatch(t, url+"/v1/batch", body)
	if code != http.StatusOK || len(r.Batch) != 2 {
		t.Fatalf("code %d, %d slots (%+v)", code, len(r.Batch), r)
	}
	for i, e := range r.Batch {
		if strings.Contains(string(e.Result), `"cached":true`) {
			continue // served by cover-down: no solve ran
		}
		if !e.Raced || e.Rung == "" {
			t.Errorf("slot %d: raced=%v rung=%q, want a raced member with its rung", i, e.Raced, e.Rung)
		}
	}
}

// TestBatchValidation: empty, oversized, and member-invalid batches, and
// a negative batch budget or deadline, are refused as well-formed 400s
// naming the offender, as /v1/solve refuses them.
func TestBatchValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBatch: 2})
	cases := []struct {
		name, body, wantErr string
	}{
		{"empty", `{"requests": []}`, "empty batch"},
		{"oversized", fmt.Sprintf(`{"requests": [{"spec": %s}, {"spec": %s}, {"spec": %s}]}`,
			testSpec, testSpec, testSpec), "exceeds limit 2"},
		{"bad-member", fmt.Sprintf(`{"requests": [{"spec": %s}, {"spec": %s, "engine": "warp"}]}`,
			testSpec, testSpec), `request 1: unknown engine "warp"`},
		{"negative-budget", fmt.Sprintf(`{"requests": [{"spec": %s}], "budget_ms": -1}`, testSpec),
			"budget_ms and deadline_ms must be >= 0"},
		{"negative-deadline", fmt.Sprintf(`{"requests": [{"spec": %s}], "deadline_ms": -5}`, testSpec),
			"budget_ms and deadline_ms must be >= 0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, r := postBatch(t, ts.URL+"/v1/batch", tc.body)
			if code != http.StatusBadRequest {
				t.Fatalf("code %d, want 400", code)
			}
			if !strings.Contains(r.Error, tc.wantErr) {
				t.Fatalf("error %q does not mention %q", r.Error, tc.wantErr)
			}
		})
	}
}

// TestSolveCacheAcrossRequests: two identical /v1/solve requests — the
// second is a cache hit, visible in the result and the /v1/stats
// counters.
func TestSolveCacheAcrossRequests(t *testing.T) {
	tel := telemetry.New(nil)
	_, url, _ := newCachedServer(t, Config{Telemetry: tel})
	for i := 0; i < 2; i++ {
		code, _, r := post(t, url+"/v1/solve", solveBody(`"cost_cap": 8`))
		if code != http.StatusOK || r.Status != "optimal" {
			t.Fatalf("solve %d: code %d status %q", i, code, r.Status)
		}
		wantCached := strings.Contains(string(r.Result), `"cached":true`)
		if wantCached != (i == 1) {
			t.Fatalf("solve %d: cached=%v", i, wantCached)
		}
	}

	resp, err := http.Get(url + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		CacheLen int              `json:"cache_len"`
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Counters["cache_hits"] != 1 || stats.Counters["cache_misses"] != 1 {
		t.Fatalf("stats counters: %+v, want 1 hit / 1 miss", stats.Counters)
	}
	if stats.CacheLen != 1 {
		t.Fatalf("cache_len %d, want 1", stats.CacheLen)
	}
}

// TestStatsWithoutCache: /v1/stats stays well-formed (and cache_len
// absent) when no cache is configured.
func TestStatsWithoutCache(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if _, present := stats["cache_len"]; present {
		t.Error("cache_len reported without a cache")
	}
	if _, present := stats["counters"]; !present {
		t.Error("counters missing")
	}
}

// TestSweepHeuristicRunsCombinatorial: a sweep certifies its points, so a
// heuristic sweep runs the combinatorial engine, says so, and is cached
// like one — the repeat is a frontier hit.
func TestSweepHeuristicRunsCombinatorial(t *testing.T) {
	tel := telemetry.New(nil)
	_, url, _ := newCachedServer(t, Config{Telemetry: tel})
	for i := 0; i < 2; i++ {
		code, _, r := post(t, url+"/v1/sweep", solveBody(`"engine": "heuristic"`))
		if code != http.StatusOK || r.Status != "optimal" {
			t.Fatalf("sweep %d: code %d status %q", i, code, r.Status)
		}
		if r.Rung != "combinatorial" || r.Degraded {
			t.Errorf("sweep %d: rung %q degraded %v, want combinatorial, not degraded", i, r.Rung, r.Degraded)
		}
	}
	hits, misses := tel.Get(telemetry.CtrFrontierHits), tel.Get(telemetry.CtrFrontierMisses)
	if hits != 1 || misses != 1 {
		t.Errorf("frontier hits %d misses %d, want 1 and 1", hits, misses)
	}
}
