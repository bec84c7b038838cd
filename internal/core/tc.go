package core

import (
	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/prims"
)

// tcBlockRanks is the number of ranks per block of the counting loop. Work
// piles up in the highest ranks (on rmat:16 the last sixteenth of them holds
// 60 % of it), so the scheduler's default 8 blocks per worker leave one
// worker with the tail; blocks this small let the workers share it. A
// block's only fixed cost is taking a mark array from the spares and
// handing it back.
const tcBlockRanks = 256

// TriangleCount counts the triangles of a symmetric graph with the
// Shun-Tangwongsan algorithm, which parallelizes Latapy's compact-forward,
// in O(m^{3/2}) work and O(log n) depth. Vertices are numbered by rank, the
// position of (degree, id) in sorted order, and each edge is directed from
// the lower rank to the higher, so every vertex keeps O(sqrt m) out-edges
// and every triangle is found exactly once: as the wedge r -> u -> w with
// rank r < u < w, w in N+(r) ∩ N+(u). The intersections run sequentially
// inside the outer parallel loop, as in the paper, but by marking instead
// of merging: for each r the entries of N+(r) are flagged in an n-byte
// array, each N+(u) adds up its flags, and the flags are cleared again. So
// the lists need no order, and the count trades O(n·P) bytes of scratch
// (one array per worker, P workers) for a merge's none. A multigraph counts
// as the simple graph underneath: a repeated edge is skipped wherever a
// list is read, and self-loops never point to a higher rank.
//
// Every graph form (CSR, overlay, compressed) takes the same path: the
// directed graph is laid out in rank space as plain CSR words, reading g
// only through OutDeg and DecodeOut, so each list is decoded twice in all
// rather than once per wedge. Besides the P mark arrays, the scratch is
// O(n + m) words: the rank arrays and the m/2 rank-space edges. On a
// compressed input that is the trade: the paper's §B keeps the directed
// graph in the parallel-byte format, O(m) bytes, and here it is O(m)
// words. No workload, test or example depends on that bound; it comes back
// together with a paper-scale compressed workload that needs it.
func TriangleCount(s *parallel.Scheduler, g graph.Graph) int64 {
	if g.N() == 0 {
		return 0
	}
	offsets, edges := rankGraph(s, g)
	s.Poll()
	return countMarked(s, g.N(), tcBlockRanks, func(lo, hi int, mark []byte) int64 {
		var count int64
		for r := lo; r < hi; r++ {
			nr := edges[offsets[r]:offsets[r+1]]
			if len(nr) < 2 {
				continue
			}
			for _, w := range nr {
				mark[w] = 1
			}
			for _, u := range nr {
				for _, w := range edges[offsets[u]:offsets[u+1]] {
					count += int64(mark[w])
				}
			}
			for _, w := range nr {
				mark[w] = 0
			}
		}
		return count
	})
}

// countMarked sums count over the blocks of [0, n) with the given grain,
// handing each call an all-zero n-byte mark array that it must return
// all-zero. A block takes a spare array or makes one and hands it back when
// done, so there are never more arrays than blocks running at once, at most
// s.Workers() however many blocks there are: the spare channel holds them
// all, and handing one back never blocks.
func countMarked(s *parallel.Scheduler, n, grain int, count func(lo, hi int, mark []byte) int64) int64 {
	spare := make(chan []byte, s.Workers())
	bounds := s.Blocks(n, grain)
	partial := make([]int64, len(bounds)-1)
	s.ForBlocks(bounds, func(b, lo, hi int) {
		var mark []byte
		select {
		case mark = <-spare:
		default:
			mark = make([]byte, n)
		}
		partial[b] = count(lo, hi, mark)
		spare <- mark
	})
	return prims.Sum(s, partial)
}

// rankGraph returns compact-forward's directed graph in rank space as CSR
// offsets and edges: ranks order vertices by (degree, id), rank 0 lowest,
// and rank r's list holds the ranks of its higher-rank neighbours, once
// each, in the id order of those neighbours. The ranking is one stable
// radix sort of the n degrees over only the bits the largest needs; the
// layout is count, scan, fill over DecodeOut, whose id-sorted lists put a
// repeated edge next to its first copy.
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
			for k, u := range buf {
				if rank[u] > uint32(r) && (k == 0 || u != buf[k-1]) {
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
			for k, u := range buf {
				if ru := rank[u]; ru > uint32(r) && (k == 0 || u != buf[k-1]) {
					edges[j] = ru
					j++
				}
			}
		}
	})
	return offsets, edges
}
