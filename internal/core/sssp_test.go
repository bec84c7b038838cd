package core

import (
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/seqref"
)

func TestBFSMatchesSequential(t *testing.T) {
	for name, g := range symGraphs() {
		want := seqref.BFS(g, 0)
		got := BFS(sched, g, 0)
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("%s: BFS dist[%d] = %d want %d", name, v, got[v], want[v])
			}
		}
	}
}

func TestBFSDirected(t *testing.T) {
	for name, g := range dirGraphs() {
		want := seqref.BFS(g, 0)
		got := BFS(sched, g, 0)
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("%s: BFS dist[%d] = %d want %d", name, v, got[v], want[v])
			}
		}
	}
}

func TestBFSTreeIsValid(t *testing.T) {
	for name, g := range symGraphs() {
		dist, parent := MultiBFS(sched, g, []uint32{0})
		for v := range dist {
			switch {
			case dist[v] == Inf:
				if parent[v] != Inf {
					t.Fatalf("%s: unreached %d has parent", name, v)
				}
			case dist[v] == 0:
				if parent[v] != uint32(v) {
					t.Fatalf("%s: root parent wrong", name)
				}
			default:
				if dist[parent[v]] != dist[v]-1 {
					t.Fatalf("%s: parent of %d not one level up", name, v)
				}
			}
		}
	}
}

func TestMultiBFSCoversAllComponents(t *testing.T) {
	g := symGraphs()["sparse-islands"]
	_, _, roots := SpanningForest(sched, g)
	dist, parent := MultiBFS(sched, g, roots)
	for v := range dist {
		if dist[v] == Inf || parent[v] == Inf {
			t.Fatalf("vertex %d unreached by multi-source BFS from component roots", v)
		}
	}
}

func TestWeightedBFSMatchesDijkstra(t *testing.T) {
	for name, g := range symWeightedGraphs() {
		want := seqref.Dijkstra(g, 0)
		got := WeightedBFS(sched, g, 0)
		for v := range want {
			w := want[v]
			gv := int64(got[v])
			if w == math.MaxInt64 {
				if got[v] != Inf {
					t.Fatalf("%s: wBFS[%d] = %d want unreachable", name, v, got[v])
				}
				continue
			}
			if gv != w {
				t.Fatalf("%s: wBFS[%d] = %d want %d", name, v, gv, w)
			}
		}
	}
}

func TestBellmanFordMatchesSequential(t *testing.T) {
	graphs := dirWeightedGraphs()
	for name, g := range symWeightedGraphs() {
		graphs[name] = g
	}
	for name, g := range graphs {
		want, wneg := seqref.BellmanFord(g, 0)
		got, gneg := BellmanFord(sched, g, 0)
		if wneg != gneg {
			t.Fatalf("%s: negative cycle flag %v want %v", name, gneg, wneg)
		}
		for v := range want {
			if got[v] != want[v] && !(want[v] == math.MaxInt64 && got[v] == InfDist) {
				t.Fatalf("%s: BF[%d] = %d want %d", name, v, got[v], want[v])
			}
		}
	}
}

func TestBellmanFordNegativeWeightsNoCycle(t *testing.T) {
	// DAG with negative weights: 0 -> 1 (5), 0 -> 2 (2), 2 -> 1 (-4), 1 -> 3 (1).
	el := &graph.EdgeList{
		N: 4,
		U: []uint32{0, 0, 2, 1},
		V: []uint32{1, 2, 1, 3},
		W: []int32{5, 2, -4, 1},
	}
	g := graph.FromEdgeList(sched, 4, el, graph.BuildOptions{})
	dist, neg := BellmanFord(sched, g, 0)
	if neg {
		t.Fatal("false negative-cycle report")
	}
	want := []int64{0, -2, 2, -1}
	for v, w := range want {
		if dist[v] != w {
			t.Fatalf("dist[%d] = %d want %d", v, dist[v], w)
		}
	}
}

func TestBellmanFordNegativeCycle(t *testing.T) {
	// 0 -> 1 -> 2 -> 1 negative cycle; 2 -> 3 reachable from it; 4 isolated.
	el := &graph.EdgeList{
		N: 5,
		U: []uint32{0, 1, 2, 2},
		V: []uint32{1, 2, 1, 3},
		W: []int32{1, -2, 1, 1},
	}
	g := graph.FromEdgeList(sched, 5, el, graph.BuildOptions{})
	dist, neg := BellmanFord(sched, g, 0)
	if !neg {
		t.Fatal("missed negative cycle")
	}
	for _, v := range []int{1, 2, 3} {
		if dist[v] != NegInfDist {
			t.Fatalf("dist[%d] = %d want -inf", v, dist[v])
		}
	}
	if dist[0] != 0 {
		t.Fatalf("dist[0] = %d", dist[0])
	}
	if dist[4] != InfDist {
		t.Fatalf("dist[4] = %d want unreachable", dist[4])
	}
}

func TestBCMatchesSequential(t *testing.T) {
	for name, g := range symGraphs() {
		want := seqref.BC(g, 0)
		got := BC(sched, g, 0)
		for v := range want {
			if math.Abs(got[v]-want[v]) > 1e-6*(1+math.Abs(want[v])) {
				t.Fatalf("%s: BC[%d] = %v want %v", name, v, got[v], want[v])
			}
		}
	}
}

func TestBCDirected(t *testing.T) {
	for name, g := range dirGraphs() {
		want := seqref.BC(g, 0)
		got := BC(sched, g, 0)
		for v := range want {
			if math.Abs(got[v]-want[v]) > 1e-6*(1+math.Abs(want[v])) {
				t.Fatalf("%s: BC[%d] = %v want %v", name, v, got[v], want[v])
			}
		}
	}
}

func TestBCKnownValues(t *testing.T) {
	// Path 0-1-2-3: from source 0, dependencies are 1->2, 2->1, 3->0.
	g := graph.FromEdgeList(sched, 4, gen.Path(4), graph.BuildOptions{Symmetrize: true})
	got := BC(sched, g, 0)
	want := []float64{0, 2, 1, 0}
	for v := range want {
		if math.Abs(got[v]-want[v]) > 1e-9 {
			t.Fatalf("BC[%d] = %v want %v", v, got[v], want[v])
		}
	}
}
