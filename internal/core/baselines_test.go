package core

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/seqref"
)

func TestDeltaSteppingMatchesDijkstra(t *testing.T) {
	for name, g := range symWeightedGraphs() {
		want := seqref.Dijkstra(g, 0)
		for _, delta := range []int32{0, 1, 3, 1000} {
			got := DeltaStepping(sched, g, 0, delta)
			for v := range want {
				gv := int64(got[v])
				if got[v] == Inf {
					gv = int64(^uint32(0))
				}
				if want[v] < int64(^uint32(0)) && gv != want[v] {
					t.Fatalf("%s delta=%d: dist[%d] = %d want %d", name, delta, v, gv, want[v])
				}
				if want[v] >= int64(^uint32(0)) && got[v] != Inf {
					t.Fatalf("%s delta=%d: vertex %d should be unreachable", name, delta, v)
				}
			}
		}
	}
}

func TestDeltaSteppingAgreesWithWBFS(t *testing.T) {
	g := symWeightedGraphs()["rmat-w"]
	a := WeightedBFS(sched, g, 5)
	b := DeltaStepping(sched, g, 5, 0)
	for v := range a {
		if a[v] != b[v] {
			t.Fatalf("wBFS and Δ-stepping disagree at %d: %d vs %d", v, a[v], b[v])
		}
	}
}

func TestMISPrefixEqualsRootset(t *testing.T) {
	// Both implement greedy MIS over the same random order, so results must
	// be identical vertex-for-vertex (the paper benchmarks them against
	// each other).
	for _, name := range []string{"rmat", "er", "torus", "star", "complete", "grid"} {
		g := symGraphs()[name]
		a := MIS(sched, g, 11)
		b := MISPrefix(sched, g, 11)
		for v := range a {
			if a[v] != b[v] {
				t.Fatalf("%s: rootset and prefix MIS differ at %d", name, v)
			}
		}
	}
}

func TestMISPrefixIsMaximalIndependent(t *testing.T) {
	g := gen.BuildErdosRenyi(sched, 1000, 5000, true, false, 31)
	in := MISPrefix(sched, g, 3)
	for v := 0; v < g.N(); v++ {
		hasSet := false
		g.OutNgh(uint32(v), func(u uint32, _ int32) bool {
			if in[u] {
				hasSet = true
			}
			return true
		})
		if in[v] && hasSet {
			t.Fatalf("prefix MIS not independent at %d", v)
		}
		if !in[v] && !hasSet {
			t.Fatalf("prefix MIS not maximal at %d", v)
		}
	}
}

func TestColoringLFProperAndCompact(t *testing.T) {
	for _, name := range []string{"rmat", "er", "complete", "star"} {
		g := symGraphs()[name]
		colors := ColoringLF(sched, g, 9)
		if !ValidColoring(sched, g, colors) {
			t.Fatalf("%s: LF coloring improper", name)
		}
		if nc := NumColors(sched, colors); nc > g.MaxDegree()+1 {
			t.Fatalf("%s: LF used %d colors > Δ+1", name, nc)
		}
	}
}

func TestColoringLFvsLLFBothProper(t *testing.T) {
	g := symGraphs()["rmat"]
	lf := NumColors(sched, ColoringLF(sched, g, 4))
	llf := NumColors(sched, Coloring(sched, g, 4))
	// Both are greedy (Δ+1) heuristics; the counts should be in the same
	// ballpark (the paper's tables show them within a few colors).
	if lf <= 0 || llf <= 0 || lf > 3*llf || llf > 3*lf {
		t.Fatalf("suspicious color counts LF=%d LLF=%d", lf, llf)
	}
}

func TestApproxKCoreRoundsUpExact(t *testing.T) {
	for _, name := range []string{"rmat", "er", "torus", "complete", "tree", "empty"} {
		g := symGraphs()[name]
		exact, _ := KCore(sched, g)
		approx := ApproxKCore(sched, g)
		for v := range exact {
			if want := nextPow2AtLeast(exact[v]); approx[v] != want {
				t.Fatalf("%s: approx[%d] = %d want next-pow2(%d) = %d",
					name, v, approx[v], exact[v], want)
			}
		}
	}
}

func TestNextPow2AtLeast(t *testing.T) {
	cases := map[uint32]uint32{0: 0, 1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 100: 128}
	for x, want := range cases {
		if got := nextPow2AtLeast(x); got != want {
			t.Fatalf("nextPow2AtLeast(%d) = %d want %d", x, got, want)
		}
	}
}

// nextPow2AtLeast returns the smallest value in {0, 1, 2, 4, 8, ...} >= x,
// the rounding ApproxKCore applies to exact corenesses.
func nextPow2AtLeast(x uint32) uint32 {
	if x == 0 {
		return 0
	}
	p := uint32(1)
	for p < x {
		p *= 2
	}
	return p
}

func TestDeltaSteppingPathGraph(t *testing.T) {
	// High-diameter sanity: many buckets, light-edge chains.
	el := gen.WithRandomWeights(sched, gen.Path(2000), 7, 5)
	g := graph.FromEdgeList(sched, 2000, el, graph.BuildOptions{Symmetrize: true})
	want := seqref.Dijkstra(g, 0)
	got := DeltaStepping(sched, g, 0, 2)
	for v := range want {
		if int64(got[v]) != want[v] {
			t.Fatalf("path dist[%d] = %d want %d", v, got[v], want[v])
		}
	}
}
