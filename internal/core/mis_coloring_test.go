package core

import (
	"testing"

	"repro/internal/prims"
	"repro/internal/seqref"
)

func TestMISIsIndependentAndMaximal(t *testing.T) {
	for name, g := range symGraphs() {
		in := MIS(sched, g, 3)
		for v := 0; v < g.N(); v++ {
			hasSetNeighbor := false
			g.OutNgh(uint32(v), func(u uint32, _ int32) bool {
				if in[u] {
					hasSetNeighbor = true
					if in[v] {
						return false
					}
				}
				return true
			})
			if in[v] && hasSetNeighbor {
				t.Fatalf("%s: vertex %d and a neighbor both in MIS", name, v)
			}
			if !in[v] && !hasSetNeighbor {
				t.Fatalf("%s: vertex %d has no neighbor in MIS (not maximal)", name, v)
			}
		}
	}
}

func TestMISEqualsSequentialGreedy(t *testing.T) {
	// The rootset algorithm computes exactly the greedy MIS over the random
	// vertex order.
	for _, name := range []string{"rmat", "er", "torus", "star", "complete"} {
		g := symGraphs()[name]
		seed := uint64(3)
		rank := prims.InversePermutation(sched, prims.RandomPermutation(sched, g.N(), seed))
		want := seqref.GreedyMIS(g, rank)
		got := MIS(sched, g, seed)
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("%s: MIS[%d] = %v want %v", name, v, got[v], want[v])
			}
		}
	}
}

func TestMISEmptyGraphAllIn(t *testing.T) {
	g := symGraphs()["empty"]
	in := MIS(sched, g, 1)
	for v, ok := range in {
		if !ok {
			t.Fatalf("isolated vertex %d excluded from MIS", v)
		}
	}
}

func TestColoringIsProper(t *testing.T) {
	for name, g := range symGraphs() {
		colors := Coloring(sched, g, 7)
		if !ValidColoring(sched, g, colors) {
			t.Fatalf("%s: improper coloring", name)
		}
		// At most Δ+1 colors.
		if nc := NumColors(sched, colors); nc > g.MaxDegree()+1 {
			t.Fatalf("%s: %d colors exceeds Δ+1 = %d", name, nc, g.MaxDegree()+1)
		}
	}
}

func TestColoringAllVerticesColored(t *testing.T) {
	g := symGraphs()["rmat"]
	colors := Coloring(sched, g, 1)
	for v, c := range colors {
		if c == Inf {
			t.Fatalf("vertex %d uncolored", v)
		}
	}
}

func TestColoringCompleteGraphUsesExactlyN(t *testing.T) {
	g := symGraphs()["complete"]
	colors := Coloring(sched, g, 5)
	if nc := NumColors(sched, colors); nc != g.N() {
		t.Fatalf("complete graph used %d colors want %d", nc, g.N())
	}
}

func TestColoringBipartiteUsesFewColors(t *testing.T) {
	// LLF on a star must use exactly 2 colors.
	g := symGraphs()["star"]
	colors := Coloring(sched, g, 2)
	if nc := NumColors(sched, colors); nc != 2 {
		t.Fatalf("star used %d colors want 2", nc)
	}
}
