package core

import (
	"repro/internal/compress"
	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/prims"
)

// TriangleCount counts the triangles of a symmetric graph (the
// Shun-Tangwongsan algorithm, parallelizing Latapy's compact-forward) in
// O(m^{3/2}) work and O(log n) depth: edges are directed from lower to
// higher degree-rank, so every triangle is counted exactly once as a wedge
// whose two out-neighborhoods intersect; adjacency lists are intersected
// sequentially inside the outer parallel loop, as in the paper.
func TriangleCount(s *parallel.Scheduler, g graph.Graph) int64 {
	n := g.N()
	// rank(u) < rank(v) iff (deg(u), u) < (deg(v), v).
	rankLess := func(u, v uint32) bool {
		du, dv := g.OutDeg(u), g.OutDeg(v)
		if du != dv {
			return du < dv
		}
		return u < v
	}
	// Direct the graph: keep (u, v) iff rank(u) < rank(v). Orders are
	// preserved, so directed adjacency lists remain sorted. When the input
	// is compressed, the directed graph is built in the parallel-byte
	// format too, as in the paper's §B ("this step creates a directed graph
	// encoded in the parallel-byte format in O(m) work").
	var dg graph.Graph
	if _, isCompressed := g.(*compress.Graph); isCompressed {
		dg = compress.FromFunc(s, g, false, 0, rankLess)
	} else {
		dg = graph.FromAdjacency(s, g, false, false, rankLess)
	}
	// Sum |N+(u) ∩ N+(v)| over directed edges (u, v).
	bounds := s.Blocks(n, 0)
	nb := len(bounds) - 1
	partial := make([]int64, nb)
	s.ForBlocks(bounds, func(b, lo, hi int) {
		// Two decode buffers per block: nv must stay valid while each
		// neighbor list decodes into the second buffer.
		var buf1, buf2 []uint32
		var local int64
		for v := lo; v < hi; v++ {
			buf1 = dg.DecodeOut(uint32(v), buf1)
			nv := buf1
			for _, u := range nv {
				buf2 = dg.DecodeOut(u, buf2)
				local += int64(prims.IntersectCount(nv, buf2))
			}
		}
		partial[b] = local
	})
	return prims.Sum(s, partial)
}
