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
	sortBits := 32 + prims.BitsFor(uint64(max(n-1, 0)))
	offsets, edges, weights := buildAdj(s, n, keys, wts, sortBits, opt)
	g := &CSR{
		n:         n,
		offsets:   offsets,
		edges:     edges,
		weights:   weights,
		symmetric: opt.Symmetrize,
	}
	if !g.symmetric {
		// Transpose the kept edges: swap endpoint halves and rebuild.
		s.Poll()
		mk := len(edges)
		tkeys := make([]uint64, mk)
		var twts []uint32
		if weights != nil {
			twts = make([]uint32, mk)
		}
		s.For(n, 256, func(v int) {
			lo, hi := offsets[v], offsets[v+1]
			for i := lo; i < hi; i++ {
				tkeys[i] = uint64(edges[i])<<32 | uint64(uint32(v))
				if twts != nil {
					twts[i] = uint32(weights[i])
				}
			}
		})
		// The forward pass already deduplicated, so keep everything here.
		t := &CSR{n: n, t: g}
		t.offsets, t.edges, t.weights = buildAdj(s, n, tkeys, twts, sortBits,
			BuildOptions{KeepDuplicates: true, KeepSelfLoops: true})
		g.t = t
	}
	return g
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
	offsets := fillOffsets(s, n, srcs, mk)
	return offsets, edges, weights
}

// fillOffsets computes CSR offsets from the sorted source array: offsets[u]
// is the first adjacency index whose source is >= u.
func fillOffsets(s *parallel.Scheduler, n int, srcs []uint32, m int) []int64 {
	offsets := make([]int64, n+1)
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

// FromAdjacency builds an unweighted CSR graph on scheduler s from the
// out-edges (v, u) of src for which keep(v, u) holds, used by code that
// transforms one graph into another (triangle counting's degree-ordered
// direction step, biconnectivity's critical-edge filter). Adjacency order is
// preserved, so sorted input gives sorted output. keep is called twice per
// edge (counting pass, filling pass) and must give the same answer both
// times. With symmetric false the result is out-only: it serves triangle
// counting's single pass over out-edges and has no Transpose.
func FromAdjacency(s *parallel.Scheduler, src Graph, symmetric bool, keep func(v, u uint32) bool) *CSR {
	n := src.N()
	degs := make([]int64, n)
	s.ForRange(n, 0, func(lo, hi int) {
		var v uint32
		var d int64
		count := func(u uint32, _ int32) bool {
			if keep(v, u) {
				d++
			}
			return true
		}
		for i := lo; i < hi; i++ {
			v, d = uint32(i), 0
			src.OutNgh(v, count)
			degs[i] = d
		}
	})
	offsets := make([]int64, n+1)
	total := prims.Scan(s, degs, offsets[:n])
	offsets[n] = total
	edges := make([]uint32, total)
	s.Poll()
	s.ForRange(n, 64, func(lo, hi int) {
		var v uint32
		var j int64
		add := func(u uint32, _ int32) bool {
			if keep(v, u) {
				edges[j] = u
				j++
			}
			return true
		}
		for i := lo; i < hi; i++ {
			v, j = uint32(i), offsets[i]
			src.OutNgh(v, add)
		}
	})
	return &CSR{n: n, offsets: offsets, edges: edges, symmetric: symmetric}
}
