package core

import (
	"slices"

	"repro/internal/compress"
	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/prims"
)

// tcBlockRanks is the number of ranks per block of the counting loop. Work
// piles up in the highest ranks (on rmat:16 the last sixteenth of them holds
// 60 % of it), so the scheduler's default 8 blocks per worker leave one
// worker with the tail; blocks this small let the workers share it.
const tcBlockRanks = 256

// TriangleCount counts the triangles of a symmetric graph with the
// Shun-Tangwongsan algorithm, which parallelizes Latapy's compact-forward,
// in O(m^{3/2}) work and O(log n) depth. Vertices are numbered by rank, the
// position of (degree, id) in sorted order, and each edge is directed from
// the lower rank to the higher, so every vertex keeps O(sqrt m) out-edges
// and every triangle is found exactly once: as the wedge r -> u -> w with
// rank r < u < w, w in N+(r) ∩ N+(u). Adjacency lists are intersected
// sequentially inside the outer parallel loop, as in the paper.
//
// On a flat graph (a CSR or an overlay) the directed graph is laid out in
// rank space: vertex r's list holds the ranks of its higher-rank
// neighbours, sorted, so for the k-th entry u of N+(r) only N+(r)[k+1:] can
// meet N+(u), whose entries all rank above u. A compressed graph keeps its
// vertex ids instead: its directed graph is encoded in the parallel-byte
// format in id order ("this step creates a directed graph encoded in the
// parallel-byte format in O(m) work", §B), so tc on it never holds an
// uncompressed copy of the edges, which is the point of that form.
func TriangleCount(s *parallel.Scheduler, g graph.Graph) int64 {
	if g.N() == 0 {
		return 0
	}
	if _, isCompressed := g.(*compress.Graph); isCompressed {
		return triangleCountCompressed(s, g)
	}
	offsets, edges := rankGraph(s, g)
	s.Poll()
	bounds := s.Blocks(g.N(), tcBlockRanks)
	partial := make([]int64, len(bounds)-1)
	s.ForBlocks(bounds, func(b, lo, hi int) {
		var local int64
		for r := lo; r < hi; r++ {
			nr := edges[offsets[r]:offsets[r+1]]
			for k, u := range nr {
				local += int64(prims.IntersectCount(nr[k+1:], edges[offsets[u]:offsets[u+1]]))
			}
		}
		partial[b] = local
	})
	return prims.Sum(s, partial)
}

// rankGraph returns compact-forward's directed graph in rank space as CSR
// offsets and edges: ranks order vertices by (degree, id), rank 0 lowest,
// and rank r's list holds the sorted ranks of its higher-rank neighbours.
// The ranking is one stable radix sort of the n degrees over only the bits
// the largest needs; the layout is count, scan, fill over DecodeOut, then a
// sort of each (short) list.
func rankGraph(s *parallel.Scheduler, g graph.Graph) ([]int64, []uint32) {
	n := g.N()
	degs := make([]uint64, n)
	order := make([]uint32, n)
	s.ForRange(n, 0, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			degs[v] = uint64(g.OutDeg(uint32(v)))
			order[v] = uint32(v)
		}
	})
	prims.RadixSortPairs(s, degs, order, prims.BitsFor(prims.Max(s, degs)))
	rank := make([]uint32, n)
	s.ForRange(n, 0, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			rank[order[r]] = uint32(r)
		}
	})
	s.Poll()
	offsets := make([]int64, n+1)
	s.ForRange(n, 0, func(lo, hi int) {
		var buf []uint32
		for r := lo; r < hi; r++ {
			buf = g.DecodeOut(order[r], buf)
			d := int64(0)
			for _, u := range buf {
				if rank[u] > uint32(r) {
					d++
				}
			}
			offsets[r] = d
		}
	})
	offsets[n] = prims.Scan(s, offsets[:n], offsets[:n])
	edges := make([]uint32, offsets[n])
	s.Poll()
	s.ForRange(n, 0, func(lo, hi int) {
		var buf []uint32
		for r := lo; r < hi; r++ {
			buf = g.DecodeOut(order[r], buf)
			j := offsets[r]
			for _, u := range buf {
				if ru := rank[u]; ru > uint32(r) {
					edges[j] = ru
					j++
				}
			}
			slices.Sort(edges[offsets[r]:j])
		}
	})
	return offsets, edges
}

// triangleCountCompressed is TriangleCount on a compressed graph: the
// directed graph keeps vertex ids and is built by compress.FromFunc under
// the same (degree, id) order, and each wedge intersects whole decoded
// out-lists, since in id order the entries below u are not a prefix.
func triangleCountCompressed(s *parallel.Scheduler, g graph.Graph) int64 {
	// rank(u) < rank(v) iff (deg(u), u) < (deg(v), v).
	rankLess := func(u, v uint32) bool {
		du, dv := g.OutDeg(u), g.OutDeg(v)
		if du != dv {
			return du < dv
		}
		return u < v
	}
	dg := compress.FromFunc(s, g, false, 0, rankLess)
	bounds := s.Blocks(g.N(), 0)
	partial := make([]int64, len(bounds)-1)
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
