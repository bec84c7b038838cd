package gen

import (
	"runtime"
	"testing"

	"repro/internal/graph"
	"repro/internal/parallel"
)

// sched is the scheduler every test in this package runs on, at the
// hardware width so the parallel code paths stay covered. Tests that need
// another width build their own with parallel.New.
var sched = parallel.New(runtime.NumCPU())

func TestTorus3DIsSixRegular(t *testing.T) {
	side := 5
	g := BuildTorus3D(sched, side, false, 1)
	n := side * side * side
	if g.N() != n {
		t.Fatalf("N = %d want %d", g.N(), n)
	}
	if g.M() != 6*n {
		t.Fatalf("M = %d want %d", g.M(), 6*n)
	}
	for v := uint32(0); int(v) < n; v++ {
		if g.OutDeg(v) != 6 {
			t.Fatalf("vertex %d has degree %d", v, g.OutDeg(v))
		}
	}
}

func TestTorus3DSmallSidesDegenerate(t *testing.T) {
	// side=2 wraps onto the same neighbor twice; dedup shrinks degrees.
	g := BuildTorus3D(sched, 2, false, 1)
	if g.N() != 8 {
		t.Fatalf("N = %d", g.N())
	}
	for v := uint32(0); v < 8; v++ {
		if g.OutDeg(v) != 3 {
			t.Fatalf("side-2 torus degree %d at %d, want 3", g.OutDeg(v), v)
		}
	}
}

func TestRMATShape(t *testing.T) {
	g := BuildRMAT(sched, 12, 8, true, false, 7)
	n := 1 << 12
	if g.N() != n {
		t.Fatalf("N = %d", g.N())
	}
	if g.M() < n || g.M() > 2*8*n {
		t.Fatalf("M = %d out of plausible range", g.M())
	}
	// Power-law-ish: max degree should be far above average degree.
	avg := g.M() / g.N()
	if g.MaxDegree() < 4*avg {
		t.Fatalf("max degree %d too close to average %d for RMAT", g.MaxDegree(), avg)
	}
}

func TestRMATDeterministicInSeed(t *testing.T) {
	a := RMAT(sched, 8, 4, 3)
	b := RMAT(sched, 8, 4, 3)
	c := RMAT(sched, 8, 4, 4)
	if a.Len() != b.Len() {
		t.Fatal("same seed different sizes")
	}
	same := true
	diff := false
	for i := range a.U {
		if a.U[i] != b.U[i] || a.V[i] != b.V[i] {
			same = false
		}
		if a.U[i] != c.U[i] || a.V[i] != c.V[i] {
			diff = true
		}
	}
	if !same {
		t.Fatal("same seed gave different graphs")
	}
	if !diff {
		t.Fatal("different seeds gave identical graphs")
	}
}

func TestErdosRenyi(t *testing.T) {
	g := BuildErdosRenyi(sched, 1000, 5000, true, false, 11)
	if g.N() != 1000 {
		t.Fatalf("N = %d", g.N())
	}
	if g.M() < 5000 || g.M() > 10000 {
		t.Fatalf("M = %d", g.M())
	}
}

func TestSmallGenerators(t *testing.T) {
	if g := graph.FromEdgeList(sched, 16, Path(16), graph.BuildOptions{Symmetrize: true}); g.M() != 30 {
		t.Fatalf("path M = %d", g.M())
	}
	if g := graph.FromEdgeList(sched, 16, Cycle(16), graph.BuildOptions{Symmetrize: true}); g.M() != 32 {
		t.Fatalf("cycle M = %d", g.M())
	}
	if g := graph.FromEdgeList(sched, 16, Star(16), graph.BuildOptions{Symmetrize: true}); g.OutDeg(0) != 15 {
		t.Fatal("star center degree wrong")
	}
	if g := graph.FromEdgeList(sched, 6, Complete(6), graph.BuildOptions{Symmetrize: true}); g.M() != 30 {
		t.Fatalf("complete M = %d", g.M())
	}
	if g := graph.FromEdgeList(sched, 15, BinaryTree(15), graph.BuildOptions{Symmetrize: true}); g.OutDeg(0) != 2 {
		t.Fatal("tree root degree wrong")
	}
	side := 4
	g := graph.FromEdgeList(sched, side*side, Grid2D(side), graph.BuildOptions{Symmetrize: true})
	if g.OutDeg(0) != 2 || g.OutDeg(uint32(side+1)) != 4 {
		t.Fatalf("grid degrees corner=%d interior=%d", g.OutDeg(0), g.OutDeg(uint32(side+1)))
	}
}

func TestWithRandomWeights(t *testing.T) {
	el := Path(100)
	WithRandomWeights(sched, el, 5, 9)
	if !el.Weighted() {
		t.Fatal("weights not attached")
	}
	seen := map[int32]bool{}
	for _, w := range el.W {
		if w < 1 || w > 5 {
			t.Fatalf("weight %d out of [1,5]", w)
		}
		seen[w] = true
	}
	if len(seen) < 3 {
		t.Fatalf("weights not varied: %v", seen)
	}
}

func TestPaperWeight(t *testing.T) {
	if PaperWeight(2) < 1 {
		t.Fatal("weight cap must be at least 1")
	}
	if w := PaperWeight(1 << 20); w < 10 || w > 25 {
		t.Fatalf("PaperWeight(2^20) = %d", w)
	}
}
