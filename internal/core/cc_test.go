package core

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/seqref"
)

func TestLDDClustersAreConnectedAndComplete(t *testing.T) {
	for name, g := range symGraphs() {
		labels := LDD(sched, g, 0.2, 7)
		n := g.N()
		for v := 0; v < n; v++ {
			if labels[v] == Inf {
				t.Fatalf("%s: vertex %d unassigned", name, v)
			}
		}
		// Every cluster must be connected through same-cluster vertices:
		// BFS from each center inside its cluster must reach all members.
		members := map[uint32][]uint32{}
		for v := 0; v < n; v++ {
			members[labels[v]] = append(members[labels[v]], uint32(v))
		}
		for center, mem := range members {
			if labels[center] != center {
				t.Fatalf("%s: center %d not labeled with itself", name, center)
			}
			reached := map[uint32]bool{center: true}
			queue := []uint32{center}
			for len(queue) > 0 {
				v := queue[0]
				queue = queue[1:]
				g.OutNgh(v, func(u uint32, _ int32) bool {
					if labels[u] == center && !reached[u] {
						reached[u] = true
						queue = append(queue, u)
					}
					return true
				})
			}
			if len(reached) != len(mem) {
				t.Fatalf("%s: cluster %d disconnected (%d of %d reached)", name, center, len(reached), len(mem))
			}
		}
	}
}

func TestLDDCutFraction(t *testing.T) {
	// The expected number of cut edges is at most ~beta*m; allow generous
	// slack for the constant factor on a random graph.
	for _, name := range []string{"rmat", "er", "torus"} {
		g := symGraphs()[name]
		beta := 0.2
		labels := LDD(sched, g, beta, 11)
		cut := cutEdges(g, labels)
		if cut > g.M() { // cut counts each direction once; M counts directions
			t.Fatalf("%s: impossible cut count %d > m=%d", name, cut, g.M())
		}
		if frac := float64(cut) / float64(g.M()); frac > 6*beta {
			t.Fatalf("%s: cut fraction %.3f far above beta=%.2f", name, frac, beta)
		}
	}
}

func TestConnectivityMatchesUnionFind(t *testing.T) {
	for name, g := range symGraphs() {
		want := seqref.Components(g)
		got := Connectivity(sched, g, 0.2, 5)
		if !seqref.SamePartition(want, got) {
			t.Fatalf("%s: connectivity partition mismatch", name)
		}
	}
}

func TestConnectivityDifferentSeedsAgree(t *testing.T) {
	g := symGraphs()["rmat"]
	a := Connectivity(sched, g, 0.2, 1)
	b := Connectivity(sched, g, 0.5, 99)
	if !seqref.SamePartition(a, b) {
		t.Fatal("different seeds/betas changed the partition")
	}
}

func TestComponentCount(t *testing.T) {
	g := symGraphs()["sparse-islands"]
	labels := Connectivity(sched, g, 0.2, 3)
	num, largest := ComponentCount(sched, labels)
	// Islands: {0,1,2}, {10,11,12}, {50,51}, plus 92 singletons.
	if num != 3+92 {
		t.Fatalf("num components = %d want %d", num, 95)
	}
	if largest != 3 {
		t.Fatalf("largest = %d want 3", largest)
	}
}

func TestSpanningForestProperties(t *testing.T) {
	for name, g := range symGraphs() {
		parent, level, roots := SpanningForest(sched, g)
		cc := seqref.Components(g)
		// One root per component.
		comps := map[uint32]bool{}
		for _, r := range roots {
			c := cc[r]
			if comps[c] {
				t.Fatalf("%s: two roots in one component", name)
			}
			comps[c] = true
		}
		nComp, _ := ComponentCount(sched, cc)
		if len(roots) != nComp {
			t.Fatalf("%s: %d roots for %d components", name, len(roots), nComp)
		}
		// Tree edge count: n - #components.
		if ForestEdgeCount(sched, parent) != g.N()-nComp {
			t.Fatalf("%s: forest has %d edges want %d", name, ForestEdgeCount(sched, parent), g.N()-nComp)
		}
		// Parents are real edges and one level up.
		for v := 0; v < g.N(); v++ {
			p := parent[v]
			if p == uint32(v) {
				if level[v] != 0 {
					t.Fatalf("%s: root %d at level %d", name, v, level[v])
				}
				continue
			}
			if level[p]+1 != level[v] {
				t.Fatalf("%s: level(parent) mismatch at %d", name, v)
			}
			found := false
			g.OutNgh(uint32(v), func(u uint32, _ int32) bool {
				if u == p {
					found = true
					return false
				}
				return true
			})
			if !found {
				t.Fatalf("%s: parent edge (%d,%d) not in graph", name, v, p)
			}
		}
	}
}

// cutEdges counts edges (u, v) with labels[u] != labels[v] (each direction
// counted once), the quantity LDD bounds by βm in expectation.
func cutEdges(g graph.Graph, labels []uint32) int {
	cut := 0
	for v := uint32(0); v < uint32(g.N()); v++ {
		g.OutNgh(v, func(u uint32, _ int32) bool {
			if labels[u] != labels[v] {
				cut++
			}
			return true
		})
	}
	return cut
}
