package core

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/seqref"
)

func TestKCoreMatchesMatulaBeck(t *testing.T) {
	for name, g := range symGraphs() {
		want := seqref.Coreness(g)
		got, rho := KCore(sched, g)
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("%s: coreness[%d] = %d want %d", name, v, got[v], want[v])
			}
		}
		if g.M() > 0 && rho <= 0 {
			t.Fatalf("%s: non-positive peeling rounds %d", name, rho)
		}
	}
}

func TestKCoreFetchAndAddAgrees(t *testing.T) {
	for _, name := range []string{"rmat", "er", "torus", "complete"} {
		g := symGraphs()[name]
		a, rhoA := KCore(sched, g)
		b, rhoB := KCoreFetchAndAdd(sched, g)
		if rhoA != rhoB {
			t.Fatalf("%s: rho differs: %d vs %d", name, rhoA, rhoB)
		}
		for v := range a {
			if a[v] != b[v] {
				t.Fatalf("%s: variants disagree at %d: %d vs %d", name, v, a[v], b[v])
			}
		}
	}
}

func TestKCoreKnownValues(t *testing.T) {
	// Complete graph on k vertices: all corenesses k-1, one peeling round.
	g := symGraphs()["complete"]
	core, rho := KCore(sched, g)
	for v, c := range core {
		if c != uint32(g.N()-1) {
			t.Fatalf("K%d coreness[%d] = %d", g.N(), v, c)
		}
	}
	if rho != 1 {
		t.Fatalf("K%d peeled in %d rounds want 1", g.N(), rho)
	}
	if Degeneracy(sched, core) != g.N()-1 {
		t.Fatalf("degeneracy = %d", Degeneracy(sched, core))
	}
	// Torus: 6-regular, all coreness 6, one round (the paper notes 3D-Torus
	// peels in a single round).
	tg := symGraphs()["torus"]
	tcore, trho := KCore(sched, tg)
	for v, c := range tcore {
		if c != 6 {
			t.Fatalf("torus coreness[%d] = %d want 6", v, c)
		}
	}
	if trho != 1 {
		t.Fatalf("torus rho = %d want 1", trho)
	}
}

func TestApproxSetCoverCoversEverything(t *testing.T) {
	for name, g := range symGraphs() {
		cover := ApproxSetCover(sched, g, 0.01, 5)
		if !CoverIsValid(sched, g, cover) {
			t.Fatalf("%s: cover invalid", name)
		}
	}
}

func TestApproxSetCoverQuality(t *testing.T) {
	// Star: the center alone covers all leaves; the cover must be tiny
	// (center + something covering the center).
	g := symGraphs()["star"]
	cover := ApproxSetCover(sched, g, 0.01, 9)
	if len(cover) > 2 {
		t.Fatalf("star cover has %d sets want <= 2", len(cover))
	}
	// Random graph: approximation should be well below n.
	rg := symGraphs()["er-dense"]
	rc := ApproxSetCover(sched, rg, 0.01, 9)
	if len(rc) > rg.N()/3 {
		t.Fatalf("dense cover has %d sets (n=%d), suspiciously large", len(rc), rg.N())
	}
}

func TestApproxSetCoverEpsilonVariants(t *testing.T) {
	g := symGraphs()["rmat"]
	for _, eps := range []float64{0.01, 0.1, 0.5} {
		cover := ApproxSetCover(sched, g, eps, 3)
		if !CoverIsValid(sched, g, cover) {
			t.Fatalf("eps=%v: invalid cover", eps)
		}
	}
}

func TestTriangleCountMatchesSequential(t *testing.T) {
	for name, g := range symGraphs() {
		want := seqref.Triangles(g)
		got := TriangleCount(sched, g)
		if got != want {
			t.Fatalf("%s: TC = %d want %d", name, got, want)
		}
	}
}

func TestTriangleCountKnownValues(t *testing.T) {
	// K_n has C(n,3) triangles.
	g := symGraphs()["complete"]
	n := int64(g.N())
	want := n * (n - 1) * (n - 2) / 6
	if got := TriangleCount(sched, g); got != want {
		t.Fatalf("K%d TC = %d want %d", n, got, want)
	}
	// Trees and tori (no odd cycles... torus has none of length 3) have 0.
	if got := TriangleCount(sched, symGraphs()["tree"]); got != 0 {
		t.Fatalf("tree TC = %d", got)
	}
	if got := TriangleCount(sched, symGraphs()["torus"]); got != 0 {
		t.Fatalf("torus TC = %d", got)
	}
}

func TestTriangleCountLargerRMAT(t *testing.T) {
	g := gen.BuildRMAT(sched, 11, 8, true, false, 50)
	want := seqref.Triangles(g)
	got := TriangleCount(sched, g)
	if got != want {
		t.Fatalf("rmat TC = %d want %d", got, want)
	}
}
