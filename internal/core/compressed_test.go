package core

import (
	"math"
	"testing"

	"repro/internal/compress"
	"repro/internal/gen"
	"repro/internal/seqref"
)

// The paper runs one code base over uncompressed (Table 4) and compressed
// (Table 5) graphs. These tests pin that property: every algorithm must
// produce identical results on the parallel-byte representation.

func TestAlgorithmsAgreeOnCompressedSymmetric(t *testing.T) {
	csr := gen.BuildRMAT(sched, 10, 8, true, false, 77)
	cg := compress.FromCSR(sched, csr, 0)

	if a, b := BFS(sched, csr, 0), BFS(sched, cg, 0); !equalU32(a, b) {
		t.Fatal("BFS differs on compressed")
	}
	if a, b := Connectivity(sched, csr, 0.2, 1), Connectivity(sched, cg, 0.2, 1); !seqref.SamePartition(a, b) {
		t.Fatal("connectivity differs on compressed")
	}
	ac, arho := KCore(sched, csr)
	bc, brho := KCore(sched, cg)
	if arho != brho || !equalU32(ac, bc) {
		t.Fatal("k-core differs on compressed")
	}
	if a, b := TriangleCount(sched, csr), TriangleCount(sched, cg); a != b {
		t.Fatalf("TC differs on compressed: %d vs %d", a, b)
	}
	am := MIS(sched, csr, 5)
	bm := MIS(sched, cg, 5)
	for v := range am {
		if am[v] != bm[v] {
			t.Fatal("MIS differs on compressed")
		}
	}
	acol := Coloring(sched, csr, 5)
	bcol := Coloring(sched, cg, 5)
	if !equalU32(acol, bcol) {
		t.Fatal("coloring differs on compressed")
	}
	aBC := BC(sched, csr, 0)
	bBC := BC(sched, cg, 0)
	for v := range aBC {
		if math.Abs(aBC[v]-bBC[v]) > 1e-6*(1+math.Abs(aBC[v])) {
			t.Fatal("BC differs on compressed")
		}
	}
	amatch := MaximalMatching(sched, csr, 9)
	bmatch := MaximalMatching(sched, cg, 9)
	if len(amatch) != len(bmatch) {
		t.Fatal("matching differs on compressed")
	}
	if a, b := ApproxSetCover(sched, csr, 0.01, 3), ApproxSetCover(sched, cg, 0.01, 3); len(a) != len(b) {
		t.Fatalf("set cover differs on compressed: %d vs %d sets", len(a), len(b))
	}
	ab := Biconnectivity(sched, csr, 0.2, 11)
	bb := Biconnectivity(sched, cg, 0.2, 11)
	if NumBiccLabels(sched, csr, ab) != NumBiccLabels(sched, cg, bb) {
		t.Fatal("biconnectivity differs on compressed")
	}
	al := LDD(sched, csr, 0.2, 13)
	bl := LDD(sched, cg, 0.2, 13)
	if len(al) != len(bl) {
		t.Fatal("LDD output sizes differ")
	}
}

func TestAlgorithmsAgreeOnCompressedWeighted(t *testing.T) {
	csr := gen.BuildRMAT(sched, 10, 8, true, true, 78)
	cg := compress.FromCSR(sched, csr, 0)
	if a, b := WeightedBFS(sched, csr, 0), WeightedBFS(sched, cg, 0); !equalU32(a, b) {
		t.Fatal("wBFS differs on compressed")
	}
	abf, _ := BellmanFord(sched, csr, 0)
	bbf, _ := BellmanFord(sched, cg, 0)
	for v := range abf {
		if abf[v] != bbf[v] {
			t.Fatal("Bellman-Ford differs on compressed")
		}
	}
	_, aw := MSF(sched, csr)
	_, bw := MSF(sched, cg)
	if aw != bw {
		t.Fatalf("MSF weight differs on compressed: %d vs %d", aw, bw)
	}
}

func TestAlgorithmsAgreeOnCompressedDirected(t *testing.T) {
	csr := gen.BuildErdosRenyi(sched, 800, 3000, false, false, 79)
	cg := compress.FromCSR(sched, csr, 0)
	a := SCC(sched, csr, 3, SCCOpts{Beta: 2.0, TrimRounds: 3})
	b := SCC(sched, cg, 3, SCCOpts{Beta: 2.0, TrimRounds: 3})
	if !seqref.SamePartition(a, b) {
		t.Fatal("SCC differs on compressed")
	}
	if x, y := BFS(sched, csr, 0), BFS(sched, cg, 0); !equalU32(x, y) {
		t.Fatal("directed BFS differs on compressed")
	}
}

func equalU32(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
