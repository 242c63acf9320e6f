package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// span is one timed call the benchmark made into a layer of the stack.
// Spans of one item or request share a trace id; a root has parent 0.
type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent,omitempty"`
	Trace  int                `json:"trace"`
	Name   string             `json:"name"`
	Layer  string             `json:"layer"`
	Start  time.Duration      `json:"start_ns"`
	End    time.Duration      `json:"end_ns"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
}

func (s *span) dur() time.Duration { return s.End - s.Start }

// benchLayer names spans that only group other spans. Their self time is
// the part of an item the layer spans do not cover.
const benchLayer = "bench"

// tracer keeps spans in memory; they are written out once the run ends.
// It is used from one goroutine at a time.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id. Ids grow with begin order, so a
// parent's id is always smaller than its children's.
func (t *tracer) begin(trace, parent int, name, layer string) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Trace: trace,
		Name: name, Layer: layer, Start: time.Since(t.t0)})
	return len(t.spans)
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id-1]
	s.End = time.Since(t.t0)
	return s.dur()
}

// do runs f inside a span and returns f's error.
func (t *tracer) do(trace, parent int, name, layer string, f func() error) error {
	id := t.begin(trace, parent, name, layer)
	err := f()
	t.end(id)
	return err
}

// attr sets a numeric attribute on span id.
func (t *tracer) attr(id int, key string, v float64) {
	s := &t.spans[id-1]
	if s.Attrs == nil {
		s.Attrs = map[string]float64{}
	}
	s.Attrs[key] = v
}

// selfTimes returns each span's self time, indexed like spans: its
// duration minus the part of its interval that its children cover.
// Children may nest, touch or overlap; overlapping parts count once.
func selfTimes(spans []span) []time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		out[i] = s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered returns how much of parent's interval the union of kids covers.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total time.Duration
	var curLo, curHi time.Duration
	for i, x := range iv {
		switch {
		case i == 0:
			curLo, curHi = x[0], x[1]
		case x[0] <= curHi:
			curHi = max(curHi, x[1])
		default:
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		}
	}
	if len(iv) > 0 {
		total += curHi - curLo
	}
	return total
}

// breakdown sums self time per layer over the span trees whose root is a
// bench-layer span: the per-layer decomposition of the items. It returns
// the per-layer self times, the total root time, and the smallest share of
// any one root that its layer spans cover.
func breakdown(spans []span) (self map[string]time.Duration, total time.Duration, minCoverage float64) {
	self = map[string]time.Duration{}
	st := selfTimes(spans)
	root := make([]int, len(spans)+1) // span id -> root span id
	minCoverage = 1
	for i, s := range spans {
		if s.Parent == 0 {
			root[s.ID] = s.ID
		} else {
			root[s.ID] = root[s.Parent]
		}
		if spans[root[s.ID]-1].Layer != benchLayer {
			continue
		}
		self[s.Layer] += st[i]
		if s.Parent == 0 {
			total += s.dur()
			if d := s.dur(); d > 0 {
				minCoverage = min(minCoverage, 1-float64(st[i])/float64(d))
			}
		}
	}
	return self, total, minCoverage
}

// writeSpans writes spans as JSON lines to path.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printLayerTable prints per-layer self time and share of the breakdown.
func printLayerTable(w io.Writer, self map[string]time.Duration, total time.Duration) {
	layers := make([]string, 0, len(self))
	for l := range self {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(a, b int) bool { return self[layers[a]] > self[layers[b]] })
	fmt.Fprintf(w, "  %-10s %12s %8s\n", "layer", "self_ms", "share")
	for _, l := range layers {
		fmt.Fprintf(w, "  %-10s %12.3f %7.2f%%\n", l, ms(self[l]), pct(self[l], total))
	}
	fmt.Fprintf(w, "  %-10s %12.3f\n", "total", ms(total))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
