package telemetry

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilCollectorIsNoOp(t *testing.T) {
	var c *Collector
	c.Inc(CtrNodesExpanded)
	c.Add(CtrLPWarm, 5)
	c.Emit(EvIncumbent, 1.5, "")
	c.Phase("solve")()
	c.Publish("never-registered")
	if c.Tracing() {
		t.Error("nil collector reports tracing")
	}
	if c.Get(CtrNodesExpanded) != 0 {
		t.Error("nil collector holds a count")
	}
	if c.Counters() != nil || c.Phases() != nil {
		t.Error("nil collector returns snapshots")
	}
}

func TestCountersAndPhases(t *testing.T) {
	c := New(nil)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				c.Inc(CtrNodesExpanded)
			}
			stop := c.Phase("worker")
			stop()
		}()
	}
	wg.Wait()
	if got := c.Get(CtrNodesExpanded); got != 800 {
		t.Errorf("nodes_expanded = %d, want 800", got)
	}
	if got := c.Counters()["nodes_expanded"]; got != 800 {
		t.Errorf("Counters() = %d, want 800", got)
	}
	ph := c.Phases()["worker"]
	if ph.Count != 8 {
		t.Errorf("phase count = %d, want 8", ph.Count)
	}
	// Counters without events: no sink means Tracing is off.
	if c.Tracing() {
		t.Error("collector without sink reports tracing")
	}
}

func TestCountingSink(t *testing.T) {
	sink := &CountingSink{}
	c := New(sink)
	if !c.Tracing() {
		t.Fatal("collector with sink not tracing")
	}
	for i := 0; i < 3; i++ {
		c.Emit(EvNodeExpand, float64(i), "")
	}
	c.Emit(EvIncumbent, 2.5, "")
	if got := sink.Count(EvNodeExpand); got != 3 {
		t.Errorf("node_expand count = %d, want 3", got)
	}
	counts := sink.Counts()
	if counts["incumbent"] != 1 || counts["node_expand"] != 3 {
		t.Errorf("Counts() = %v", counts)
	}
	if _, ok := counts["node_prune"]; ok {
		t.Error("zero-count kind present in Counts()")
	}
}

func TestRingSinkBounds(t *testing.T) {
	sink := NewRingSink(4)
	c := New(sink)
	for i := 0; i < 10; i++ {
		c.Emit(EvNodeExpand, float64(i), "")
	}
	if sink.Total() != 10 {
		t.Errorf("total = %d, want 10", sink.Total())
	}
	evs := sink.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	for i, e := range evs {
		if want := float64(6 + i); e.Value != want {
			t.Errorf("event %d value = %g, want %g (oldest-first order)", i, e.Value, want)
		}
	}
}

func TestStreamSinkJSONL(t *testing.T) {
	var buf bytes.Buffer
	sink := NewStreamSink(&buf)
	c := New(sink)
	c.Emit(EvIncumbent, 3.5, "")
	c.Emit(EvLPResolve, math.Inf(1), "warm") // non-finite payload must not poison the stream
	if err := sink.Flush(); err != nil {
		t.Fatalf("stream error: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("wrote %d lines, want 2", len(lines))
	}
	var e Event
	if err := json.Unmarshal([]byte(lines[0]), &e); err != nil {
		t.Fatalf("line 0 invalid JSON: %v", err)
	}
	if e.Kind != EvIncumbent || e.Value != 3.5 {
		t.Errorf("round-trip event = %+v", e)
	}
	// Non-finite Value serializes as absent/null, not an encode error.
	var raw map[string]any
	if err := json.Unmarshal([]byte(lines[1]), &raw); err != nil {
		t.Fatalf("line 1 invalid JSON: %v", err)
	}
	if v, ok := raw["value"]; ok && v != nil {
		t.Errorf("non-finite value serialized as %v, want omitted or null", v)
	}
}

// TestStreamSinkCloseMidWrite is the truncated-run contract: a trace cut
// off by cancellation/shutdown while concurrent solves are still emitting
// must still be a parseable JSONL file. Close races with concurrent Emits;
// whatever made it in before Close must be complete lines, and stragglers
// after Close are dropped rather than half-written.
func TestStreamSinkCloseMidWrite(t *testing.T) {
	var buf bytes.Buffer
	sink := NewStreamSink(&buf)
	c := New(sink)

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-ctx.Done():
					// Simulate a straggler emitting after shutdown began.
					c.Emit(EvNodeExpand, float64(i), "straggler")
					return
				default:
					c.Emit(EvIncumbent, float64(i), "mid-write")
				}
			}
		}()
	}
	time.Sleep(5 * time.Millisecond) // let the stream accumulate mid-write
	cancel()
	if err := sink.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	wg.Wait()
	before := buf.Len()
	if err := sink.Close(); err != nil { // idempotent
		t.Fatalf("second close: %v", err)
	}
	c.Emit(EvIncumbent, 1, "post-close") // dropped, not half-written
	if buf.Len() != before {
		t.Fatal("emit after Close leaked bytes into the stream")
	}

	// Every line of the truncated trace must parse.
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) == 0 || lines[0] == "" {
		t.Fatal("mid-write close produced an empty trace")
	}
	for i, line := range lines {
		var e Event
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("line %d of truncated trace is not valid JSON: %v\n%q", i, err, line)
		}
	}
}

func TestEventKindJSONRoundTrip(t *testing.T) {
	for k := EventKind(0); k < numEventKinds; k++ {
		data, err := json.Marshal(k)
		if err != nil {
			t.Fatalf("marshal %v: %v", k, err)
		}
		var back EventKind
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("unmarshal %s: %v", data, err)
		}
		if back != k {
			t.Errorf("round trip %v -> %s -> %v", k, data, back)
		}
	}
}

func TestPhaseTimerAccumulates(t *testing.T) {
	c := New(nil)
	stop := c.Phase("p")
	time.Sleep(2 * time.Millisecond)
	stop()
	if c.Phases()["p"].Total <= 0 {
		t.Error("phase total not positive")
	}
}

// BenchmarkDisabledOverhead pins the disabled-path cost: one nil check per
// touch point. The telemetry layer's contract is that a nil collector adds
// no measurable work to solver hot loops.
func BenchmarkDisabledOverhead(b *testing.B) {
	var c *Collector
	for i := 0; i < b.N; i++ {
		c.Inc(CtrNodesExpanded)
		c.Emit(EvNodeExpand, 1, "")
	}
}

func BenchmarkCountersOnly(b *testing.B) {
	c := New(nil)
	for i := 0; i < b.N; i++ {
		c.Inc(CtrNodesExpanded)
		c.Emit(EvNodeExpand, 1, "")
	}
}
