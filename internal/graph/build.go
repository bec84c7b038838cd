package graph

import (
	"repro/internal/parallel"
	"repro/internal/prims"
)

// BuildOptions controls FromEdgeList. The zero value gives the paper's input
// contract: no self-loops, no duplicate edges and sorted adjacency lists.
// A directed graph always carries its transpose.
type BuildOptions struct {
	// Symmetrize adds the reverse of every input edge, producing a
	// symmetric (undirected) graph. Duplicates created by symmetrizing an
	// already-bidirectional list are removed by deduplication.
	Symmetrize bool
	// KeepSelfLoops retains u->u edges instead of dropping them.
	KeepSelfLoops bool
	// KeepDuplicates retains parallel edges instead of deduplicating. For
	// weighted graphs deduplication keeps the minimum weight per edge.
	KeepDuplicates bool
}

// FromEdgeList builds a CSR graph over n vertices from el on scheduler s. It
// runs in O(m log n) work (radix sort dominated) and polylogarithmic depth,
// and is how all generator and I/O paths construct graphs. The build is
// phased (pack keys, sort, filter, lay out offsets, transpose), and s.Poll()
// is checked between phases so a build on a context-attached scheduler
// aborts promptly after cancellation.
func FromEdgeList(s *parallel.Scheduler, n int, el *EdgeList, opt BuildOptions) *CSR {
	m0 := el.Len()
	m := m0
	if opt.Symmetrize {
		m = 2 * m0
	}
	keys := make([]uint64, m)
	var wts []uint32
	if el.Weighted() {
		wts = make([]uint32, m)
	}
	s.Poll()
	s.ForRange(m0, 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			keys[i] = uint64(el.U[i])<<32 | uint64(el.V[i])
			if wts != nil {
				wts[i] = uint32(el.W[i])
			}
			if opt.Symmetrize {
				keys[m0+i] = uint64(el.V[i])<<32 | uint64(el.U[i])
				if wts != nil {
					wts[m0+i] = uint32(el.W[i])
				}
			}
		}
	})
	offsets, edges, weights := buildAdj(s, n, keys, wts, 32+prims.BitsFor(uint64(max(n-1, 0))), opt)
	g := &CSR{
		n:         n,
		offsets:   offsets,
		edges:     edges,
		weights:   weights,
		symmetric: opt.Symmetrize,
	}
	if !g.symmetric {
		linkTranspose(s, g)
	}
	return g
}

// linkTranspose builds the transpose of the directed graph g on scheduler s
// and links the two both ways. Every stored edge is reversed as it is,
// duplicates and self-loops included, and equal in-neighbors keep their
// out-order, so the transpose's rows are sorted whenever g's are.
func linkTranspose(s *parallel.Scheduler, g *CSR) {
	s.Poll()
	n, m := g.n, len(g.edges)
	keys := make([]uint64, m)
	var wts []uint32
	if g.weights != nil {
		wts = make([]uint32, m)
	}
	s.For(n, 256, func(v int) {
		for i := g.offsets[v]; i < g.offsets[v+1]; i++ {
			keys[i] = uint64(g.edges[i])<<32 | uint64(uint32(v))
			if wts != nil {
				wts[i] = uint32(g.weights[i])
			}
		}
	})
	t := &CSR{n: n, t: g}
	t.offsets, t.edges, t.weights = buildAdj(s, n, keys, wts, 32+prims.BitsFor(uint64(max(n-1, 0))),
		BuildOptions{KeepDuplicates: true, KeepSelfLoops: true})
	g.t = t
}

// buildAdj sorts packed (u<<32|v) keys, applies self-loop/duplicate
// filtering, and lays out CSR offsets and neighbor arrays.
func buildAdj(s *parallel.Scheduler, n int, keys []uint64, wts []uint32, sortBits int, opt BuildOptions) ([]int64, []uint32, []int32) {
	s.Poll()
	if wts != nil {
		prims.RadixSortPairs(s, keys, wts, sortBits)
	} else {
		prims.RadixSortU64(s, keys, sortBits)
	}
	m := len(keys)
	keep := func(i int) bool {
		k := keys[i]
		if !opt.KeepSelfLoops && uint32(k>>32) == uint32(k) {
			return false
		}
		if !opt.KeepDuplicates && i > 0 && keys[i-1] == k {
			return false
		}
		return true
	}
	s.Poll()
	kept := prims.PackIndex(s, m, keep)
	mk := len(kept)
	edges := make([]uint32, mk)
	srcs := make([]uint32, mk)
	var weights []int32
	if wts != nil {
		weights = make([]int32, mk)
	}
	s.ForRange(mk, 0, func(lo, hi int) {
		for j := lo; j < hi; j++ {
			i := int(kept[j])
			k := keys[i]
			srcs[j] = uint32(k >> 32)
			edges[j] = uint32(k)
			if weights != nil {
				w := wts[i]
				if !opt.KeepDuplicates {
					// Keep the minimum weight across a duplicate run, so a
					// weighted multigraph collapses to its lightest edges
					// (what MSF needs).
					for q := i + 1; q < m && keys[q] == k; q++ {
						if wts[q] < w {
							w = wts[q]
						}
					}
				}
				weights[j] = int32(w)
			}
		}
	})
	return FillOffsets(s, n, srcs), edges, weights
}

// FillOffsets computes the CSR offsets over n vertices of a sorted source
// array on scheduler s: offsets[u] is the first index whose source is >= u.
func FillOffsets(s *parallel.Scheduler, n int, srcs []uint32) []int64 {
	offsets := make([]int64, n+1)
	m := len(srcs)
	if m == 0 {
		return offsets
	}
	s.Poll()
	s.ForRange(m, 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			u := srcs[i]
			if i == 0 {
				for w := uint32(0); w <= u; w++ {
					offsets[w] = 0
				}
				continue
			}
			if prev := srcs[i-1]; prev != u {
				for w := prev + 1; w <= u; w++ {
					offsets[w] = int64(i)
				}
			}
		}
	})
	for w := int(srcs[m-1]) + 1; w <= n; w++ {
		offsets[w] = int64(m)
	}
	return offsets
}

// FilterEdges lists the out-edges (v, u) of g for which keep(v, u) holds
// as an edge list on scheduler s, in vertex order and in adjacency order
// within a vertex. It is the one routine that turns a graph into an edge
// list: the one-direction lists of MSF and maximal matching, connectivity's
// contraction and the build pipeline's explode and relabel steps all go
// through it. A nil keep keeps every stored edge. With weighted true the
// list carries g's edge weights (1 on an unweighted g); otherwise no weight
// column is allocated. The kept edges are counted per block of one Blocks
// partition, the block counts are scanned, and each block writes its edges
// from its offset on, so no per-vertex array and no intermediate graph is
// made. keep is called twice per edge (counting pass, filling pass) and
// must give the same answer both times.
func FilterEdges(s *parallel.Scheduler, g Graph, weighted bool, keep func(v, u uint32) bool) *EdgeList {
	bounds := s.Blocks(g.N(), 0)
	offs := make([]int, len(bounds)-1)
	s.ForBlocks(bounds, func(b, lo, hi int) {
		var v uint32
		c := 0
		count := func(u uint32, _ int32) bool {
			if keep(v, u) {
				c++
			}
			return true
		}
		for i := lo; i < hi; i++ {
			if keep == nil {
				c += g.OutDeg(uint32(i))
			} else {
				v = uint32(i)
				g.OutNgh(v, count)
			}
		}
		offs[b] = c
	})
	m := prims.ScanInPlace(s, offs)
	el := &EdgeList{N: g.N(), U: make([]uint32, m), V: make([]uint32, m)}
	if weighted {
		el.W = make([]int32, m)
	}
	s.Poll()
	s.ForBlocks(bounds, func(b, lo, hi int) {
		eu, ev, ew := el.U, el.V, el.W
		var v uint32
		j := offs[b]
		add := func(u uint32, w int32) bool {
			if keep == nil || keep(v, u) {
				eu[j], ev[j] = v, u
				if ew != nil {
					ew[j] = w
				}
				j++
			}
			return true
		}
		for i := lo; i < hi; i++ {
			v = uint32(i)
			g.OutNgh(v, add)
		}
	})
	return el
}
