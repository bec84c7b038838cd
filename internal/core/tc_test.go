package core

import (
	"slices"
	"testing"

	"repro/internal/compress"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/xrand"
)

// rankGraph's layout is compact-forward's directed graph: each list is
// strictly increasing, holds only ranks above its own, and the lists keep
// one direction of every edge, m/2 entries in all. The ranks themselves
// order (degree, id).
func TestRankGraphIsDegreeOrderedHalf(t *testing.T) {
	for name, g := range symGraphs() {
		offsets, edges := rankGraph(sched, g)
		n := g.N()
		if len(offsets) != n+1 || offsets[0] != 0 || offsets[n] != int64(len(edges)) {
			t.Fatalf("%s: offsets malformed", name)
		}
		if 2*len(edges) != g.M() {
			t.Fatalf("%s: %d directed edges, want m/2 = %d", name, len(edges), g.M()/2)
		}
		for r := 0; r < n; r++ {
			list := edges[offsets[r]:offsets[r+1]]
			for k, u := range list {
				if int(u) <= r {
					t.Fatalf("%s: rank %d lists rank %d, not above its own", name, r, u)
				}
				if k > 0 && list[k-1] >= u {
					t.Fatalf("%s: rank %d's list %v is not strictly increasing", name, r, list)
				}
			}
		}
		// Ranks follow (degree, id): rank r's out-degree is the number of
		// neighbours of the r-th vertex in that order that come after it.
		order := make([]uint32, n)
		for v := range order {
			order[v] = uint32(v)
		}
		slices.SortStableFunc(order, func(a, b uint32) int { return g.OutDeg(a) - g.OutDeg(b) })
		for r := 0; r < n; r++ {
			v := order[r]
			up := 0
			for _, u := range g.OutNghSlice(v) {
				if g.OutDeg(u) > g.OutDeg(v) || (g.OutDeg(u) == g.OutDeg(v) && u > v) {
					up++
				}
			}
			if got := int(offsets[r+1] - offsets[r]); got != up {
				t.Fatalf("%s: rank %d (vertex %d) has %d out-edges, want %d", name, r, v, got, up)
			}
		}
	}
}

// TriangleCount on an overlay (base plus inserted edges) equals the count
// on its compacted CSR and on that CSR's compressed form, at every worker
// count: the flat path reads the overlay's merged lists through DecodeOut,
// and the compressed path keeps id order.
func TestTriangleCountOverlayMatchesCompactAndCompressed(t *testing.T) {
	const n = 600
	base := gen.BuildErdosRenyi(sched, n, 2500, true, false, 7)
	var g graph.Graph = base
	for round := uint64(0); round < 2; round++ {
		rng := xrand.New(100 + round)
		batch := &graph.EdgeList{N: n}
		for i := 0; i < 1500; i++ {
			batch.Add(uint32(rng.Next()%n), uint32(rng.Next()%n), 1)
		}
		g, _ = graph.ApplyEdges(sched, g, batch)
	}
	overlay, ok := g.(*graph.Overlay)
	if !ok {
		t.Fatalf("ApplyEdges gave %T, want an overlay", g)
	}
	compact := overlay.Compact(sched)
	compressed := compress.FromCSR(sched, compact, 0)
	for _, p := range []int{1, 2, 4} {
		s := parallel.New(p)
		fromOverlay := TriangleCount(s, overlay)
		fromCSR := TriangleCount(s, compact)
		fromCompressed := TriangleCount(s, compressed)
		s.Close()
		if fromOverlay != fromCSR || fromCompressed != fromCSR {
			t.Fatalf("workers=%d: overlay %d, compacted CSR %d, compressed %d triangles", p, fromOverlay, fromCSR, fromCompressed)
		}
		if fromCSR == 0 {
			t.Fatalf("workers=%d: fixture has no triangles", p)
		}
	}
}
