package seqref

// The oracles themselves are checked against hand-computable known values,
// so an oracle bug cannot silently validate a broken parallel
// implementation.

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/parallel"
)

// sched is the scheduler every test in this package runs on, at the
// hardware width so the parallel code paths stay covered. Tests that need
// another width build their own with parallel.New.
var sched = parallel.New(runtime.NumCPU())

func path4() graph.Graph {
	return graph.FromEdgeList(sched, 4, gen.Path(4), graph.BuildOptions{Symmetrize: true})
}

func TestBFSKnown(t *testing.T) {
	d := BFS(path4(), 0)
	for v, want := range []uint32{0, 1, 2, 3} {
		if d[v] != want {
			t.Fatalf("d[%d] = %d", v, d[v])
		}
	}
}

func TestDijkstraKnown(t *testing.T) {
	el := &graph.EdgeList{N: 3, U: []uint32{0, 0, 1}, V: []uint32{1, 2, 2}, W: []int32{1, 10, 2}}
	g := graph.FromEdgeList(sched, 3, el, graph.BuildOptions{})
	d := Dijkstra(g, 0)
	if d[2] != 3 {
		t.Fatalf("d[2] = %d want 3 (through vertex 1)", d[2])
	}
}

func TestBellmanFordKnownNegCycle(t *testing.T) {
	el := &graph.EdgeList{N: 3, U: []uint32{0, 1, 2}, V: []uint32{1, 2, 1}, W: []int32{1, -3, 1}}
	g := graph.FromEdgeList(sched, 3, el, graph.BuildOptions{})
	d, neg := BellmanFord(g, 0)
	if !neg || d[1] != math.MinInt64 || d[2] != math.MinInt64 {
		t.Fatalf("neg=%v d=%v", neg, d)
	}
}

func TestBCKnown(t *testing.T) {
	d := BC(path4(), 0)
	want := []float64{0, 2, 1, 0}
	for v := range want {
		if math.Abs(d[v]-want[v]) > 1e-12 {
			t.Fatalf("BC[%d] = %v", v, d[v])
		}
	}
}

func TestComponentsAndPartition(t *testing.T) {
	el := &graph.EdgeList{N: 5, U: []uint32{0, 2}, V: []uint32{1, 3}}
	g := graph.FromEdgeList(sched, 5, el, graph.BuildOptions{Symmetrize: true})
	c := Components(g)
	if c[0] != c[1] || c[2] != c[3] || c[0] == c[2] || c[4] == c[0] {
		t.Fatalf("components = %v", c)
	}
	if !SamePartition([]uint32{1, 1, 2}, []uint32{7, 7, 9}) {
		t.Fatal("SamePartition false negative")
	}
	if SamePartition([]uint32{1, 1, 2}, []uint32{7, 8, 9}) {
		t.Fatal("SamePartition false positive (split)")
	}
	if SamePartition([]uint32{1, 2}, []uint32{7, 7}) {
		t.Fatal("SamePartition false positive (merge)")
	}
}

func TestKruskalKnown(t *testing.T) {
	// Triangle with weights 1,2,3: MSF = {1,2}, weight 3.
	w, count := Kruskal(3, []uint32{0, 1, 0}, []uint32{1, 2, 2}, []int32{1, 2, 3})
	if w != 3 || count != 2 {
		t.Fatalf("Kruskal w=%d count=%d", w, count)
	}
}

func TestSCCKnown(t *testing.T) {
	// 0->1->2->0 cycle plus 2->3 (3 is its own SCC).
	el := &graph.EdgeList{N: 4, U: []uint32{0, 1, 2, 2}, V: []uint32{1, 2, 0, 3}}
	g := graph.FromEdgeList(sched, 4, el, graph.BuildOptions{})
	c := SCC(g)
	if c[0] != c[1] || c[1] != c[2] || c[3] == c[0] {
		t.Fatalf("SCC = %v", c)
	}
}

func TestBCCKnown(t *testing.T) {
	// Path 0-1-2: two bridges = two BCCs.
	bcc := BCC(path4())
	if len(bcc) != 3 {
		t.Fatalf("%d edges labeled", len(bcc))
	}
	ids := map[uint32]bool{}
	for _, id := range bcc {
		ids[id] = true
	}
	if len(ids) != 3 {
		t.Fatalf("path4 has %d BCCs want 3", len(ids))
	}
	// Triangle: one BCC.
	tri := graph.FromEdgeList(sched, 3, &graph.EdgeList{N: 3, U: []uint32{0, 1, 2}, V: []uint32{1, 2, 0}}, graph.BuildOptions{Symmetrize: true})
	bccT := BCC(tri)
	first := uint32(0)
	for _, id := range bccT {
		first = id
	}
	for e, id := range bccT {
		if id != first {
			t.Fatalf("triangle edge %x in different BCC", e)
		}
	}
}

func TestCorenessKnown(t *testing.T) {
	// Triangle with a pendant: triangle vertices have coreness 2, pendant 1.
	el := &graph.EdgeList{N: 4, U: []uint32{0, 1, 2, 0}, V: []uint32{1, 2, 0, 3}}
	g := graph.FromEdgeList(sched, 4, el, graph.BuildOptions{Symmetrize: true})
	c := Coreness(g)
	want := []uint32{2, 2, 2, 1}
	for v := range want {
		if c[v] != want[v] {
			t.Fatalf("coreness = %v want %v", c, want)
		}
	}
}

func TestGreedyMISKnown(t *testing.T) {
	// Path 0-1-2 with rank order 0,1,2: greedy takes 0, blocks 1, takes 2.
	g := graph.FromEdgeList(sched, 3, gen.Path(3), graph.BuildOptions{Symmetrize: true})
	in := GreedyMIS(g, []uint32{0, 1, 2})
	if !in[0] || in[1] || !in[2] {
		t.Fatalf("MIS = %v", in)
	}
}

func TestGreedyMatchingKnown(t *testing.T) {
	// Path 0-1-2 with edge (0,1) first: matches (0,1) only.
	m := GreedyMatching(3, []uint32{0, 1}, []uint32{1, 2}, []uint64{0, 1})
	if len(m) != 1 || !m[EdgeKey(0, 1)] {
		t.Fatalf("matching = %v", m)
	}
}

func TestTrianglesKnown(t *testing.T) {
	k4 := graph.FromEdgeList(sched, 4, gen.Complete(4), graph.BuildOptions{Symmetrize: true})
	if got := Triangles(k4); got != 4 {
		t.Fatalf("K4 triangles = %d", got)
	}
	if got := Triangles(path4()); got != 0 {
		t.Fatalf("path triangles = %d", got)
	}
}

func TestUnionFind(t *testing.T) {
	uf := NewUnionFind(4)
	if !uf.Union(0, 1) || uf.Union(0, 1) {
		t.Fatal("Union repeat behaviour wrong")
	}
	if uf.Find(0) != uf.Find(1) || uf.Find(2) == uf.Find(0) {
		t.Fatal("Find wrong")
	}
}
