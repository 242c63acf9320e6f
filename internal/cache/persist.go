package cache

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"

	"sos/internal/arch"
	"sos/internal/schedule"
	"sos/internal/sim"
	"sos/internal/specfile"
)

// spillRecord is one JSONL line of the persistent spill: the full
// problem in specfile form plus the proof. Lines are self-contained so a
// restarted process (or a different machine) can rebuild the entry, and
// the canonical key is recomputed on load rather than trusted from disk.
//
// CostCap, Deadline, and Bound are spillFloats, not float64s: an
// unbounded-deadline MinCost proof carries Deadline = +Inf, which
// encoding/json rejects outright — with plain floats json.Marshal fails
// and appendSpill (silent by design) drops the line, so the proof
// silently never survives a restart. The spillFloat form writes
// non-finite values as strings and round-trips them exactly, which
// matters doubly for Deadline: the restored request is re-keyed through
// Prepare, so a lossy decode would file the proof under the wrong key.
type spillRecord struct {
	V           int             `json:"v"`
	Spec        json.RawMessage `json:"spec"` // {"graph":…,"library":…,"pool":…}
	Topology    string          `json:"topology"`
	TopoCost    float64         `json:"topo_cost,omitempty"`
	Objective   string          `json:"objective"` // "makespan" | "cost"
	CostCap     spillFloat      `json:"cost_cap,omitempty"`
	Deadline    spillFloat      `json:"deadline,omitempty"`
	Memory      bool            `json:"memory,omitempty"`
	NoOverlapIO bool            `json:"no_overlap_io,omitempty"`
	Status      string          `json:"status"` // "optimal" | "infeasible"
	Bound       spillFloat      `json:"bound,omitempty"`
	Nodes       int64           `json:"nodes,omitempty"`
	Design      json.RawMessage `json:"design,omitempty"`
	// Tightened marks a swept chain point (entry.tightened).
	Tightened bool `json:"tightened,omitempty"`
}

// spillFloat is a float64 that survives JSON at non-finite values:
// ±Inf and NaN marshal as the strings "+Inf"/"-Inf"/"NaN" (encoding/json
// rejects them as numbers), finite values marshal as plain numbers, so
// spill files written before this type existed still parse.
type spillFloat float64

func (f spillFloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	switch {
	case math.IsInf(v, 1):
		return []byte(`"+Inf"`), nil
	case math.IsInf(v, -1):
		return []byte(`"-Inf"`), nil
	case math.IsNaN(v):
		return []byte(`"NaN"`), nil
	}
	return json.Marshal(v)
}

func (f *spillFloat) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		switch s {
		case "+Inf", "Inf":
			*f = spillFloat(math.Inf(1))
		case "-Inf":
			*f = spillFloat(math.Inf(-1))
		case "NaN":
			*f = spillFloat(math.NaN())
		default:
			return fmt.Errorf("cache: bad spill float %q", s)
		}
		return nil
	}
	var v float64
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	*f = spillFloat(v)
	return nil
}

const spillVersion = 1

type spill struct {
	f *os.File
	w *bufio.Writer
}

func openSpill(path string) (*spill, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	return &spill{f: f, w: bufio.NewWriter(f)}, nil
}

func (s *spill) close() error {
	err := s.w.Flush()
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// appendSpill persists one stored proof. Failures are silent by design:
// the spill is an optimization, and the in-memory entry is already live.
func (c *Cache) appendSpill(e *entry) {
	c.spillMu.Lock()
	defer c.spillMu.Unlock()
	if c.spill == nil {
		return
	}
	rec, err := recordOf(e)
	if err != nil {
		return
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return
	}
	if _, err := c.spill.w.Write(append(line, '\n')); err != nil {
		return
	}
	c.spill.w.Flush()
}

func recordOf(e *entry) (*spillRecord, error) {
	counts := make([]int, e.req.Pool.Library().NumTypes())
	for _, p := range e.req.Pool.Procs() {
		counts[p.Type]++
	}
	spec, err := json.Marshal(&specfile.Spec{
		Graph:   e.req.Graph,
		Library: e.req.Pool.Library(),
		Pool:    counts,
	})
	if err != nil {
		return nil, err
	}
	topoName, topoCost, _, err := topoParams(e.req.Topo)
	if err != nil {
		return nil, err
	}
	rec := &spillRecord{
		V:           spillVersion,
		Spec:        spec,
		Topology:    topoName,
		TopoCost:    topoCost,
		CostCap:     spillFloat(e.req.CostCap),
		Deadline:    spillFloat(e.req.Deadline),
		Memory:      e.req.Memory,
		NoOverlapIO: e.req.NoOverlapIO,
		Nodes:       e.nodes,
		Tightened:   e.tightened,
	}
	if e.req.Objective == MinCost {
		rec.Objective = "cost"
	} else {
		rec.Objective = "makespan"
	}
	if e.infeasible {
		rec.Status = "infeasible"
	} else {
		rec.Status = "optimal"
		rec.Bound = spillFloat(e.objVal)
		d, err := schedule.EncodeDesign(e.design)
		if err != nil {
			return nil, err
		}
		rec.Design = d
	}
	return rec, nil
}

// maxSpillLine bounds one spill line; longer lines are skipped.
const maxSpillLine = 1 << 24

// loadSpill replays spill lines into the in-memory cache. Corrupt,
// stale, oversize, or otherwise unusable lines are skipped and counted —
// the spill is advisory — and loading goes on with the next line. Every
// restored proof is re-keyed from its own decoded problem, so a spill
// written by an older canonicalizer can only miss, never mislead.
func (c *Cache) loadSpill(in io.Reader) (restored, skipped int) {
	r := bufio.NewReader(in)
	var line []byte
	long := false
	for {
		chunk, err := r.ReadSlice('\n')
		if !long && len(line)+len(chunk) > maxSpillLine {
			long, line = true, line[:0]
		}
		if !long {
			line = append(line, chunk...)
		}
		if err == bufio.ErrBufferFull {
			continue // the line goes on
		}
		line = bytes.TrimRight(line, "\r\n")
		switch {
		case long:
			skipped++
		case len(line) == 0:
		case c.loadLine(line):
			restored++
		default:
			skipped++
		}
		line, long = line[:0], false
		if err != nil {
			return restored, skipped // io.EOF, or a read error: keep what loaded
		}
	}
}

func (c *Cache) loadLine(line []byte) bool {
	var rec spillRecord
	if err := json.Unmarshal(line, &rec); err != nil || rec.V != spillVersion {
		return false
	}
	spec, err := specfile.Parse(rec.Spec)
	if err != nil {
		return false
	}
	topo, err := arch.ParseTopology(rec.Topology, rec.TopoCost)
	if err != nil {
		return false
	}
	req := Request{
		Graph:       spec.Graph,
		Pool:        spec.Instances(),
		Topo:        topo,
		CostCap:     float64(rec.CostCap),
		Deadline:    float64(rec.Deadline),
		Memory:      rec.Memory,
		NoOverlapIO: rec.NoOverlapIO,
	}
	if rec.Objective == "cost" {
		req.Objective = MinCost
	} else if rec.Objective != "makespan" {
		return false
	}
	p, err := Prepare(req)
	if err != nil {
		return false
	}
	e := &entry{
		key:    p.canon.key,
		family: p.canon.family,
		limit:  p.canon.limit,
		nodes:  rec.Nodes,
		canon:  p.canon,
		req:    req,
	}
	switch rec.Status {
	case "infeasible":
		e.infeasible = true
		e.objVal = math.Inf(1)
		e.designLimit = math.Inf(1)
	case "optimal":
		d, err := schedule.DecodeDesign(rec.Design, req.Graph, req.Pool, topo)
		if err != nil || recheck(&req, d, float64(rec.Bound)) != nil {
			return false
		}
		e.design = d
		e.objVal = float64(rec.Bound)
		e.tightened = rec.Tightened
		if req.Objective == MinCost {
			e.designLimit = d.Makespan
		} else {
			e.designLimit = d.Cost
		}
	default:
		return false
	}
	added, evicted := c.insert(e)
	c.countEvictions(evicted)
	return added
}

// recheck re-derives what a persisted Optimal line claims instead of
// trusting it: its bound must be the design's objective (makespan, or
// cost under MinCost), the design must meet the line's own cap and
// deadline, and a simulator replay must reach the design's makespan.
// DecodeDesign has already validated the schedule itself.
func recheck(req *Request, d *schedule.Design, bound float64) error {
	obj := d.Makespan
	if req.Objective == MinCost {
		obj = d.Cost
	}
	if !(math.Abs(bound-obj) <= 1e-6*math.Max(1, math.Abs(obj))) {
		return fmt.Errorf("cache: bound %g is not the design's objective %g", bound, obj)
	}
	if req.CostCap > 0 && d.Cost > req.CostCap+limitEps {
		return fmt.Errorf("cache: design cost %g exceeds cap %g", d.Cost, req.CostCap)
	}
	if req.Deadline > 0 && d.Makespan > req.Deadline+limitEps {
		return fmt.Errorf("cache: design makespan %g exceeds deadline %g", d.Makespan, req.Deadline)
	}
	tr, err := sim.Replay(d)
	if err != nil {
		return err
	}
	if tr.Makespan != d.Makespan {
		return fmt.Errorf("cache: replay makespan %g, design says %g", tr.Makespan, d.Makespan)
	}
	return nil
}
