package arch

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"sos/internal/taskgraph"
)

func twoTaskGraph() *taskgraph.Graph {
	g := taskgraph.New("two")
	a := g.AddSubtask("A")
	b := g.AddSubtask("B")
	g.AddArc(a, b, taskgraph.ArcSpec{Volume: 2})
	return g
}

func TestLibraryBasics(t *testing.T) {
	g := twoTaskGraph()
	lib := NewLibrary("L", 1, 2, 0.5)
	t1 := lib.AddType("fast", 10, []float64{1, 1})
	t2 := lib.AddType("", 3, []float64{NoTime, 4})
	if lib.NumTypes() != 2 {
		t.Fatal("type count")
	}
	if lib.Type(t2).Name != "p2" {
		t.Errorf("auto type name = %q", lib.Type(t2).Name)
	}
	if lib.Exec(t1, 0) != 1 || !lib.CanRun(t1, 0) {
		t.Error("exec lookup broken")
	}
	if lib.CanRun(t2, 0) {
		t.Error("NoTime treated as capable")
	}
	if !lib.CanRun(t2, 1) {
		t.Error("finite time treated as incapable")
	}
	if lib.CanRun(t1, taskgraph.SubtaskID(9)) {
		t.Error("out-of-range subtask treated as capable")
	}
	caps := lib.CapableTypes(0)
	if len(caps) != 1 || caps[0] != t1 {
		t.Errorf("capable types = %v", caps)
	}
	if err := lib.Validate(g); err != nil {
		t.Errorf("valid library rejected: %v", err)
	}
}

func TestLibraryValidateErrors(t *testing.T) {
	g := twoTaskGraph()
	lib := NewLibrary("L", 1, 1, 0)
	lib.AddType("p", 1, []float64{1}) // no entry for subtask B
	if err := lib.Validate(g); err == nil || !strings.Contains(err.Error(), "no processor type") {
		t.Errorf("uncovered subtask accepted: %v", err)
	}
	lib2 := NewLibrary("L2", -1, 1, 0)
	lib2.AddType("p", 1, []float64{1, 1})
	if err := lib2.Validate(g); err == nil {
		t.Error("negative link cost accepted")
	}
	lib3 := NewLibrary("L3", 1, 1, 0)
	lib3.AddType("p", -2, []float64{1, 1})
	if err := lib3.Validate(g); err == nil {
		t.Error("negative processor cost accepted")
	}
}

func TestScaleExec(t *testing.T) {
	lib := NewLibrary("L", 1, 1, 0)
	lib.AddType("p", 2, []float64{2, NoTime})
	s := lib.ScaleExec(3)
	if s.Exec(0, 0) != 6 {
		t.Errorf("scaled exec = %g", s.Exec(0, 0))
	}
	if !math.IsInf(s.Exec(0, 1), 1) {
		t.Error("NoTime lost under scaling")
	}
	if lib.Exec(0, 0) != 2 {
		t.Error("original mutated")
	}
	if s.Type(0).Cost != 2 || s.LinkCost != 1 {
		t.Error("costs must not scale")
	}
}

func TestInstancePoolNaming(t *testing.T) {
	lib := NewLibrary("L", 1, 1, 0)
	lib.AddType("p1", 1, []float64{1})
	lib.AddType("p2", 1, []float64{1})
	pool := InstancePool(lib, []int{2, 1})
	if pool.NumProcs() != 3 {
		t.Fatal("pool size")
	}
	names := []string{pool.Proc(0).Name, pool.Proc(1).Name, pool.Proc(2).Name}
	want := []string{"p1a", "p1b", "p2a"}
	for i := range names {
		if names[i] != want[i] {
			t.Errorf("instance %d name = %q, want %q", i, names[i], want[i])
		}
	}
	groups := pool.SameType()
	if len(groups) != 1 || len(groups[0]) != 2 {
		t.Errorf("same-type groups = %v", groups)
	}
}

func TestAutoPool(t *testing.T) {
	g := twoTaskGraph()
	lib := NewLibrary("L", 1, 1, 0)
	lib.AddType("p1", 1, []float64{1, 1})      // can run both
	lib.AddType("p2", 1, []float64{NoTime, 1}) // only B
	pool := AutoPool(lib, g, 0)
	// p1 gets 2 copies (two runnable subtasks), p2 gets 1.
	if pool.NumProcs() != 3 {
		t.Errorf("auto pool size = %d, want 3", pool.NumProcs())
	}
	capped := AutoPool(lib, g, 1)
	if capped.NumProcs() != 2 {
		t.Errorf("capped auto pool size = %d, want 2", capped.NumProcs())
	}
	if caps := pool.Capable(0); len(caps) != 2 {
		t.Errorf("capable instances for A = %v", caps)
	}
}

func TestPointToPointTopology(t *testing.T) {
	topo := PointToPoint{}
	n := 4
	if topo.NumLinks(n) != 16 {
		t.Errorf("NumLinks = %d", topo.NumLinks(n))
	}
	p := topo.Path(n, 1, 3)
	if len(p) != 1 || p[0] != LinkID(1*4+3) {
		t.Errorf("path = %v", p)
	}
	lib := NewLibrary("L", 2, 5, 0)
	if topo.DelayPerUnit(lib, n, 0, 1) != 5 {
		t.Error("delay")
	}
	if topo.LinkCost(lib, 7) != 2 {
		t.Error("link cost")
	}
}

func TestBusTopology(t *testing.T) {
	topo := Bus{Cost: 3}
	if topo.NumLinks(9) != 1 {
		t.Error("bus has one resource")
	}
	if got := topo.Path(9, 2, 7); len(got) != 1 || got[0] != 0 {
		t.Errorf("bus path = %v", got)
	}
	lib := NewLibrary("L", 1, 1, 0)
	if topo.LinkCost(lib, 0) != 3 {
		t.Error("bus cost")
	}
}

func TestRingTopology(t *testing.T) {
	topo := Ring{}
	lib := NewLibrary("L", 1, 2, 0)
	n := 5
	if topo.NumLinks(n) != 10 {
		t.Errorf("ring links = %d", topo.NumLinks(n))
	}
	// 1 -> 3: clockwise 2 hops (segments 1, 2).
	p := topo.Path(n, 1, 3)
	if len(p) != 2 || p[0] != LinkID(1) || p[1] != LinkID(2) {
		t.Errorf("cw path = %v", p)
	}
	// 0 -> 4: counter-clockwise 1 hop (segment n+0).
	p = topo.Path(n, 0, 4)
	if len(p) != 1 || p[0] != LinkID(5) {
		t.Errorf("ccw path = %v", p)
	}
	if d := topo.DelayPerUnit(lib, n, 1, 3); d != 4 {
		t.Errorf("2-hop delay = %g, want 4", d)
	}
	if d := topo.DelayPerUnit(lib, n, 0, 4); d != 2 {
		t.Errorf("1-hop delay = %g, want 2", d)
	}
}

// TestRingPathProperties: path lengths match hop counts, and every
// consecutive segment chains correctly, for random ring sizes.
func TestRingPathProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	topo := Ring{}
	lib := NewLibrary("L", 1, 1, 0)
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(9)
		a := rng.Intn(n)
		b := rng.Intn(n)
		if a == b {
			continue
		}
		path := topo.Path(n, ProcID(a), ProcID(b))
		if float64(len(path)) != topo.DelayPerUnit(lib, n, ProcID(a), ProcID(b)) {
			t.Fatalf("n=%d %d->%d: path len %d vs delay %g", n, a, b, len(path),
				topo.DelayPerUnit(lib, n, ProcID(a), ProcID(b)))
		}
		cw := ringCW(n, a, b)
		wantHops := cw
		if n-cw < wantHops {
			wantHops = n - cw
		}
		if len(path) != wantHops {
			t.Fatalf("n=%d %d->%d: %d segments, want %d", n, a, b, len(path), wantHops)
		}
	}
}

func TestLinkNames(t *testing.T) {
	lib := NewLibrary("L", 1, 1, 0)
	lib.AddType("p1", 1, []float64{1})
	pool := InstancePool(lib, []int{2})
	p2p := PointToPoint{}
	if got := p2p.LinkName(pool, p2p.Path(2, 0, 1)[0]); got != "l(p1a,p1b)" {
		t.Errorf("p2p link name = %q", got)
	}
	if got := (Bus{}).LinkName(pool, 0); got != "bus" {
		t.Errorf("bus link name = %q", got)
	}
	ring := Ring{}
	if got := ring.LinkName(pool, ring.Path(2, 0, 1)[0]); !strings.Contains(got, "ring") {
		t.Errorf("ring link name = %q", got)
	}
}

func TestRandomLibraryCoverage(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		g := taskgraph.Random(rng, taskgraph.RandomSpec{Subtasks: 1 + rng.Intn(10)})
		lib := RandomLibrary(rng, g, 1+rng.Intn(4))
		if err := lib.Validate(g); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// TestForcedPool pins the forced-mapping pool: type i runs only subtask i,
// in 1-5 time units, one instance per type, and the pool consumes exactly
// one rng.Intn(5) per type, in type order (the scale workloads' instances
// depend on that order).
func TestForcedPool(t *testing.T) {
	const n = 12
	rng := rand.New(rand.NewSource(5))
	twin := rand.New(rand.NewSource(5))
	pool := ForcedPool(rng, n)
	if pool.NumProcs() != n || pool.Library().NumTypes() != n {
		t.Fatalf("%d instances of %d types, want %d of %d", pool.NumProcs(), pool.Library().NumTypes(), n, n)
	}
	for _, p := range pool.Procs() {
		want := float64(1 + twin.Intn(5))
		for a := 0; a < n; a++ {
			id := taskgraph.SubtaskID(a)
			switch {
			case a == int(p.Type) && pool.Exec(p.ID, id) != want:
				t.Errorf("type %d runs subtask %d in %g, want %g", p.Type, a, pool.Exec(p.ID, id), want)
			case a != int(p.Type) && pool.CanRun(p.ID, id):
				t.Errorf("type %d can run subtask %d", p.Type, a)
			}
		}
		if pool.Cost(p.ID) != 1 {
			t.Errorf("type %d costs %g, want 1", p.Type, pool.Cost(p.ID))
		}
	}
	if rng.Int63() != twin.Int63() {
		t.Error("ForcedPool drew more than one rng.Intn(5) per type")
	}
}
