package core

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/seqref"
)

func TestSCCMatchesTarjan(t *testing.T) {
	for name, g := range dirGraphs() {
		want := seqref.SCC(g)
		got := SCC(sched, g, 17, SCCOpts{})
		if !seqref.SamePartition(want, got) {
			t.Fatalf("%s: SCC partition mismatch", name)
		}
	}
}

func TestSCCSeedsAgree(t *testing.T) {
	g := dirGraphs()["rmat-dir"]
	a := SCC(sched, g, 1, SCCOpts{})
	b := SCC(sched, g, 2, SCCOpts{Beta: 1.3})
	if !seqref.SamePartition(a, b) {
		t.Fatal("SCC partition varies with seed")
	}
}

func TestSCCTrimDisabled(t *testing.T) {
	g := dirGraphs()["er-sparse"]
	want := seqref.SCC(g)
	got := SCC(sched, g, 3, SCCOpts{TrimRounds: -1})
	if !seqref.SamePartition(want, got) {
		t.Fatal("SCC without trimming mismatches")
	}
}

func TestSCCSingleGiantComponent(t *testing.T) {
	// A directed cycle over n vertices is one SCC; exercises the
	// first-phase single-pivot path.
	g := graph.FromEdgeList(sched, 1000, gen.Cycle(1000), graph.BuildOptions{})
	got := SCC(sched, g, 5, SCCOpts{})
	for v := 1; v < 1000; v++ {
		if got[v] != got[0] {
			t.Fatalf("cycle split at %d", v)
		}
	}
}

func TestSCCDAGAllSingletons(t *testing.T) {
	g := dirGraphs()["dag"]
	got := SCC(sched, g, 9, SCCOpts{})
	seen := map[uint32]bool{}
	for _, l := range got {
		if seen[l] {
			t.Fatal("DAG produced a non-singleton SCC")
		}
		seen[l] = true
	}
}

func TestSCCRandomDigraphsProperty(t *testing.T) {
	for seed := uint64(0); seed < 8; seed++ {
		g := gen.BuildErdosRenyi(sched, 200, 500, false, false, 1000+seed)
		want := seqref.SCC(g)
		got := SCC(sched, g, seed, SCCOpts{Beta: 1.5})
		if !seqref.SamePartition(want, got) {
			t.Fatalf("seed %d: SCC partition mismatch", seed)
		}
	}
}
