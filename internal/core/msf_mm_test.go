package core

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/parallel"
	"repro/internal/seqref"
	"repro/internal/xrand"
)

func TestMSFMatchesKruskalWeight(t *testing.T) {
	for name, g := range symWeightedGraphs() {
		eu, ev, ew := extractEdges(sched, g, true)
		wantW, wantCount := seqref.Kruskal(g.N(), eu, ev, ew)
		forest, gotW := MSF(sched, g)
		if gotW != wantW {
			t.Fatalf("%s: MSF weight %d want %d", name, gotW, wantW)
		}
		if len(forest) != wantCount {
			t.Fatalf("%s: MSF has %d edges want %d", name, len(forest), wantCount)
		}
	}
}

func TestMSFIsSpanningForest(t *testing.T) {
	for name, g := range symWeightedGraphs() {
		forest, _ := MSF(sched, g)
		// The forest must be acyclic and connect exactly the components of g.
		uf := seqref.NewUnionFind(g.N())
		for _, e := range forest {
			if !uf.Union(e.U, e.V) {
				t.Fatalf("%s: forest contains a cycle at (%d,%d)", name, e.U, e.V)
			}
			// Forest edges must exist in the graph with the right weight.
			found := false
			g.OutNgh(e.U, func(u uint32, w int32) bool {
				if u == e.V && w == e.W {
					found = true
					return false
				}
				return true
			})
			if !found {
				t.Fatalf("%s: forest edge (%d,%d,w=%d) not in graph", name, e.U, e.V, e.W)
			}
		}
		cc := seqref.Components(g)
		forestCC := make([]uint32, g.N())
		for v := range forestCC {
			forestCC[v] = uf.Find(uint32(v))
		}
		if !seqref.SamePartition(cc, forestCC) {
			t.Fatalf("%s: forest does not span the graph's components", name)
		}
	}
}

func TestMSFLargeTriggersFiltering(t *testing.T) {
	// Dense enough that m >> 3n: the filtering path runs.
	g := gen.BuildErdosRenyi(sched, 500, 30000, true, true, 77)
	eu, ev, ew := extractEdges(sched, g, true)
	wantW, wantCount := seqref.Kruskal(g.N(), eu, ev, ew)
	forest, gotW := MSF(sched, g)
	if gotW != wantW || len(forest) != wantCount {
		t.Fatalf("filtered MSF: weight %d (want %d), %d edges (want %d)", gotW, wantW, len(forest), wantCount)
	}
}

func TestMSFDeterministic(t *testing.T) {
	g := symWeightedGraphs()["rmat-w"]
	f1, w1 := MSF(sched, g)
	f2, w2 := MSF(sched, g)
	if w1 != w2 || len(f1) != len(f2) {
		t.Fatal("MSF not deterministic")
	}
}

func TestMaximalMatchingValidMaximal(t *testing.T) {
	for name, g := range symGraphs() {
		match := MaximalMatching(sched, g, 21)
		if !MatchingIsValid(g, match) {
			t.Fatalf("%s: matching invalid", name)
		}
		if !MatchingIsMaximal(sched, g, match) {
			t.Fatalf("%s: matching not maximal", name)
		}
	}
}

func TestMaximalMatchingEqualsSequentialGreedy(t *testing.T) {
	// The parallel algorithm computes exactly the greedy matching over the
	// random edge order (the lexicographically-first MIS of the line graph).
	for _, name := range []string{"rmat", "er", "grid", "cycle"} {
		g := symGraphs()[name]
		seed := uint64(31)
		eu, ev, _ := extractEdges(sched, g, false)
		key := make([]uint64, len(eu))
		for i := range key {
			key[i] = uint64(xrand.Hash32(seed, uint64(i)))<<32 | uint64(uint32(i))
		}
		want := seqref.GreedyMatching(g.N(), eu, ev, key)
		got := MaximalMatching(sched, g, seed)
		if len(got) != len(want) {
			t.Fatalf("%s: %d matched edges want %d", name, len(got), len(want))
		}
		for _, e := range got {
			if !want[seqref.EdgeKey(e.U, e.V)] {
				t.Fatalf("%s: edge (%d,%d) not in greedy matching", name, e.U, e.V)
			}
		}
	}
}

func TestMaximalMatchingFilteringPath(t *testing.T) {
	g := gen.BuildErdosRenyi(sched, 400, 20000, true, false, 88)
	match := MaximalMatching(sched, g, 5)
	if !MatchingIsValid(g, match) || !MatchingIsMaximal(sched, g, match) {
		t.Fatal("filtered matching broken")
	}
}

func TestExtractEdgesOncePerEdge(t *testing.T) {
	g := symGraphs()["rmat"]
	eu, ev, _ := extractEdges(sched, g, false)
	if 2*len(eu) != g.M() {
		t.Fatalf("extracted %d edges for m=%d", len(eu), g.M())
	}
	for i := range eu {
		if eu[i] >= ev[i] {
			t.Fatalf("edge %d not normalized: (%d,%d)", i, eu[i], ev[i])
		}
	}
	// Under one worker the extraction must be identical.
	eu1, ev1, _ := extractEdges(parallel.New(1), g, false)
	for i := range eu {
		if eu[i] != eu1[i] || ev[i] != ev1[i] {
			t.Fatal("extraction differs under one worker")
		}
	}
}
