package core

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/compress"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/seqref"
	"repro/internal/xrand"
)

// rankGraph's layout is compact-forward's directed graph: each list holds
// distinct ranks (a sorted copy is strictly increasing; the lists
// themselves follow neighbour ids), only ranks above its own, and the lists
// keep one direction of every edge, m/2 entries in all. The ranks
// themselves order (degree, id).
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
			list := slices.Sorted(slices.Values(edges[offsets[r]:offsets[r+1]]))
			for k, u := range list {
				if int(u) <= r {
					t.Fatalf("%s: rank %d lists rank %d, not above its own", name, r, u)
				}
				if k > 0 && list[k-1] >= u {
					t.Fatalf("%s: rank %d's list %v holds a rank twice", name, r, list)
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

// simpleOf builds the simple symmetric graph underneath g: its out-edges
// with repeats and self-loops dropped.
func simpleOf(g graph.Graph) *graph.CSR {
	el := &graph.EdgeList{N: g.N()}
	var buf []uint32
	for v := 0; v < g.N(); v++ {
		buf = g.DecodeOut(uint32(v), buf)
		for _, u := range buf {
			el.Add(uint32(v), u, 1)
		}
	}
	return graph.FromEdgeList(sched, g.N(), el, graph.BuildOptions{Symmetrize: true})
}

// TriangleCount on a multigraph counts the simple graph underneath, on the
// flat, compressed and overlay forms at every worker count, and so agrees
// with seqref.Triangles on the deduplicated build. The fixture is
// Erdős–Rényi(40, 300) with a third of its edges repeated; the overlay
// adds a batch on top of it.
func TestTriangleCountOnMultigraphCountsSimpleGraph(t *testing.T) {
	for seed := uint64(0); seed < 5; seed++ {
		el := gen.ErdosRenyi(sched, 40, 300, seed)
		for i := 0; i < 300; i += 3 {
			el.Add(el.U[i], el.V[i], 1)
		}
		multi := graph.FromEdgeList(sched, 40, el, graph.BuildOptions{Symmetrize: true, KeepDuplicates: true})
		batch := &graph.EdgeList{N: 40}
		rng := xrand.New(seed)
		for i := 0; i < 60; i++ {
			batch.Add(uint32(rng.Next()%40), uint32(rng.Next()%40), 1)
		}
		overlay, _ := graph.ApplyEdges(sched, multi, batch)
		if _, ok := overlay.(*graph.Overlay); !ok {
			t.Fatalf("seed %d: ApplyEdges gave %T, want an overlay", seed, overlay)
		}
		forms := map[string]graph.Graph{
			"flat":       multi,
			"compressed": compress.FromCSR(sched, multi, 0),
			"overlay":    overlay,
		}
		for name, g := range forms {
			simple := simpleOf(g)
			want := seqref.Triangles(simple)
			for _, p := range []int{1, 2, 4} {
				s := parallel.New(p)
				got, ofSimple := TriangleCount(s, g), TriangleCount(s, simple)
				s.Close()
				if got != want || ofSimple != want {
					t.Fatalf("seed %d, %s, workers=%d: %d triangles, %d on the deduplicated build, seqref %d",
						seed, name, p, got, ofSimple, want)
				}
			}
		}
	}
}

// FuzzTriangleCount checks tc on the flat and compressed forms of a small
// graph the fuzzer shapes against seqref.Triangles of its deduplicated
// build. data[0] picks n <= 64 and each following byte pair is one edge, so
// repeated edges and self-loops come up often; both are kept.
func FuzzTriangleCount(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 0, 1, 1, 2, 2, 0})
	f.Add([]byte{3, 0, 1, 1, 2, 2, 0, 0, 1, 2, 1, 3, 3, 0, 2})
	f.Add(bytes.Repeat([]byte{63, 5, 17, 40, 9}, 40))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 1 + int(data[0]%64)
		el := &graph.EdgeList{N: n}
		for i := 1; i+1 < len(data); i += 2 {
			el.Add(uint32(int(data[i])%n), uint32(int(data[i+1])%n), 1)
		}
		flat := graph.FromEdgeList(sched, n, el, graph.BuildOptions{Symmetrize: true, KeepSelfLoops: true, KeepDuplicates: true})
		want := seqref.Triangles(graph.FromEdgeList(sched, n, el, graph.BuildOptions{Symmetrize: true}))
		if got := TriangleCount(sched, flat); got != want {
			t.Fatalf("flat: %d triangles, seqref %d on the deduplicated build", got, want)
		}
		if got := TriangleCount(sched, compress.FromCSR(sched, flat, 0)); got != want {
			t.Fatalf("compressed: %d triangles, seqref %d on the deduplicated build", got, want)
		}
	})
}
