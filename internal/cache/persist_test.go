package cache

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sos/internal/arch"
	"sos/internal/expts"
)

// spillLines stores the given proofs in a fresh persistent cache and
// returns the spill file's lines.
func spillLines(t *testing.T, reqs ...Request) []string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "spill.jsonl")
	c := newCache(t, Options{PersistPath: path})
	for _, r := range reqs {
		prove(t, c, mustProbe(t, r))
	}
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return strings.Split(strings.TrimSpace(string(data)), "\n")
}

// editLine rewrites one spill line through a generic JSON map.
func editLine(t *testing.T, line string, edit func(rec map[string]any)) string {
	t.Helper()
	var rec map[string]any
	if err := json.Unmarshal([]byte(line), &rec); err != nil {
		t.Fatal(err)
	}
	edit(rec)
	out, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

func writeSpill(t *testing.T, lines ...string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "spill.jsonl")
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestSpillRecheckDropsForgedProofs: persisted proofs are re-checked on
// load, not trusted. An Example 1 cap-14 proof whose line is edited to
// claim cap 5 and bound 99 would otherwise be served as the cap-5
// optimum (the true one is (5, 7)); a truncated line and a bit-flipped
// design time must be dropped too. Each forged line counts as skipped.
func TestSpillRecheckDropsForgedProofs(t *testing.T) {
	g, lib := expts.Example1()
	pool := expts.Example1Pool(lib)
	p2p := arch.PointToPoint{}
	valid := spillLines(t, Request{Graph: g, Pool: pool, Topo: p2p, CostCap: 14})[0]

	forged := editLine(t, valid, func(rec map[string]any) {
		rec["cost_cap"] = 5.0
		rec["bound"] = 99.0
	})
	truncated := valid[:len(valid)/2]
	flipped := editLine(t, valid, func(rec map[string]any) {
		var d map[string]any
		if err := json.Unmarshal(mustJSON(t, rec["design"]), &d); err != nil {
			t.Fatal(err)
		}
		task := d["tasks"].([]any)[0].(map[string]any)
		end := task["end"].(float64)
		task["end"] = math.Float64frombits(math.Float64bits(end) ^ 1<<52)
		rec["design"] = d
	})

	c := newCache(t, Options{PersistPath: writeSpill(t, valid, forged, truncated, flipped)})
	if n, sk := c.Loaded(); n != 1 || sk != 3 {
		t.Fatalf("Loaded = (%d, %d), want (1, 3): only the untouched proof may load", n, sk)
	}
	if hit := c.Lookup(mustProbe(t, Request{Graph: g, Pool: pool, Topo: p2p, CostCap: 5})); hit != nil {
		t.Fatalf("cap 5 served a forged proof: design (%g, %g), bound %g",
			hit.Design.Cost, hit.Design.Makespan, hit.Bound)
	}
	if hit := c.Lookup(mustProbe(t, Request{Graph: g, Pool: pool, Topo: p2p, CostCap: 14})); hit == nil || hit.Bound != 2.5 {
		t.Fatalf("the untouched cap-14 proof was not restored: %+v", hit)
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSpillOversizeLine: a line longer than the loader's limit is
// skipped and counted, and the lines after it still load — as they do
// after a short junk line.
func TestSpillOversizeLine(t *testing.T) {
	g, lib := expts.Example1()
	pool := expts.Example1Pool(lib)
	valid := spillLines(t, Request{Graph: g, Pool: pool, Topo: arch.PointToPoint{}, CostCap: 7})[0]
	for name, junk := range map[string]string{
		"short": "junk",
		"17MiB": string(bytes.Repeat([]byte{'x'}, 17<<20)),
	} {
		c := newCache(t, Options{PersistPath: writeSpill(t, junk, valid)})
		if n, sk := c.Loaded(); n != 1 || sk != 1 {
			t.Errorf("%s junk line: Loaded = (%d, %d), want (1, 1)", name, n, sk)
		}
	}
}
