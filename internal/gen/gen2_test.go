package gen

import (
	"testing"

	"repro/internal/graph"
)

func TestBarabasiAlbertShape(t *testing.T) {
	g := BuildBarabasiAlbert(sched, 2000, 4, false, 5)
	if g.N() != 2000 {
		t.Fatalf("N = %d", g.N())
	}
	// Preferential attachment: single component rooted at early vertices,
	// power-law tail, so max degree far above k.
	if g.MaxDegree() < 20 {
		t.Fatalf("max degree %d too small for preferential attachment", g.MaxDegree())
	}
	// Every vertex (beyond 0) attached at least one edge.
	for v := uint32(1); int(v) < g.N(); v++ {
		if g.OutDeg(v) == 0 {
			t.Fatalf("vertex %d isolated", v)
		}
	}
}

func TestBarabasiAlbertDeterministic(t *testing.T) {
	a := BarabasiAlbert(500, 3, 1)
	b := BarabasiAlbert(500, 3, 1)
	if a.Len() != b.Len() {
		t.Fatal("same seed different sizes")
	}
	for i := range a.U {
		if a.U[i] != b.U[i] || a.V[i] != b.V[i] {
			t.Fatal("same seed different edges")
		}
	}
}

func TestWattsStrogatzNoRewire(t *testing.T) {
	// p=0: pure ring lattice, every vertex has degree 2k after
	// symmetrization.
	g := BuildWattsStrogatz(sched, 100, 3, 0, false, 1)
	for v := uint32(0); int(v) < g.N(); v++ {
		if g.OutDeg(v) != 6 {
			t.Fatalf("lattice degree %d at %d, want 6", g.OutDeg(v), v)
		}
	}
}

func TestWattsStrogatzRewireChangesEdges(t *testing.T) {
	lattice := WattsStrogatz(sched, 500, 4, 0, 2)
	rewired := WattsStrogatz(sched, 500, 4, 0.5, 2)
	diff := 0
	for i := range lattice.V {
		if lattice.V[i] != rewired.V[i] {
			diff++
		}
	}
	// About half the edges should be rewired.
	if diff < len(lattice.V)/4 || diff > 3*len(lattice.V)/4 {
		t.Fatalf("%d of %d edges rewired with p=0.5", diff, len(lattice.V))
	}
}

func TestWattsStrogatzFullRewireStillBuilds(t *testing.T) {
	g := BuildWattsStrogatz(sched, 200, 2, 1.0, true, 3)
	if g.N() != 200 || g.M() == 0 || !g.Weighted() {
		t.Fatalf("N=%d M=%d", g.N(), g.M())
	}
	_ = graph.Graph(g)
}
