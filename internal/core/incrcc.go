package core

import (
	"repro/internal/atomics"
	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/prims"
)

// This file implements connectivity over an edge stream: a concurrent
// min-hooking union-find (the bulk-parallel union-find of Simsiri et al.,
// "Work-Efficient Parallel Union-Find with Applications to Incremental
// Graph Connectivity") whose output is deterministic at any thread count.
//
// Determinism argument. A hook is a CAS of parent[hi] from hi to lo, where
// hi > lo are two roots: it succeeds only while hi is still a root, so a
// hook never overwrites an existing link (a WriteMin here would, cutting hi's
// subtree off a tree it had already joined). Path halving writes a vertex's
// grandparent with WriteMin32; the grandparent is in the same tree and never
// larger than the current parent. So parent values only decrease, every
// intermediate forest respects parent[v] <= v, trees only ever merge, and
// each root is its tree's minimum vertex. After all unions complete,
// flattening therefore labels each vertex with its component's minimum
// vertex id — a canonical value independent of how the concurrent hooks
// interleaved. Monotone decrease also bounds the retry loops: each failed
// hook means another thread already linked hi below a smaller vertex, so
// total work is finite.

// ufFind returns the root of x's tree, halving the path as it walks: each
// visited vertex is pointed at its grandparent (via WriteMin32, so a
// concurrent smaller hook is never overwritten).
func ufFind(parent []uint32, x uint32) uint32 {
	for {
		p := atomics.Load32(&parent[x])
		if p == x {
			return x
		}
		if gp := atomics.Load32(&parent[p]); gp != p {
			atomics.WriteMin32(&parent[x], gp)
		}
		x = p
	}
}

// ufUnite links the trees of u and v by hooking the larger root under the
// smaller. On return u and v are in the same tree.
func ufUnite(parent []uint32, u, v uint32) {
	for {
		ru, rv := ufFind(parent, u), ufFind(parent, v)
		if ru == rv {
			return
		}
		lo, hi := min(ru, rv), max(ru, rv)
		if atomics.CAS32(&parent[hi], hi, lo) {
			return
		}
		// Lost the race: hi was hooked under a smaller vertex after we
		// found it, so it is no longer a root. Re-find and retry.
	}
}

// ufFlatten pointer-jumps every vertex to its root so the forest becomes
// depth <= 1: labels[v] is then the minimum vertex id of v's component.
func ufFlatten(s *parallel.Scheduler, parent []uint32) {
	for {
		s.Poll()
		changed := prims.MapReduce(s, len(parent), 0, func(v int) int {
			p := atomics.Load32(&parent[v])
			gp := atomics.Load32(&parent[p])
			if gp == p {
				return 0
			}
			atomics.WriteMin32(&parent[v], gp)
			return 1
		}, func(a, b int) int { return a + b })
		if changed == 0 {
			return
		}
	}
}

// UnionFindCC computes connected components with the concurrent union-find
// above, labelling every vertex with the minimum vertex id of its component
// (so the labelling is canonical: independent of thread count and
// scheduling, and stable under edge insertions that do not merge
// components). Directed edges are treated as undirected. Unlike the
// LDD-based Connectivity it needs no randomness and its output forest is a
// valid starting state for IncrementalCC.
func UnionFindCC(s *parallel.Scheduler, g graph.Graph) []uint32 {
	return unionFind(s, g, nil)
}

// unionFind is UnionFindCC over the edges (v, u) of g for which keep holds
// (every edge when keep is nil). On a symmetric g, keep must be symmetric
// too, since only one direction of each edge is united.
func unionFind(s *parallel.Scheduler, g graph.Graph, keep func(v, u uint32) bool) []uint32 {
	n := g.N()
	parent := make([]uint32, n)
	s.ForRange(n, 0, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			parent[v] = uint32(v)
		}
	})
	s.Poll()
	sym := g.Symmetric()
	s.ForRange(n, 32, func(lo, hi int) {
		var v uint32
		unite := func(u uint32, _ int32) bool {
			// A symmetric graph stores both directions; uniting one suffices.
			if (!sym || u > v) && (keep == nil || keep(v, u)) {
				ufUnite(parent, v, u)
			}
			return true
		}
		for i := lo; i < hi; i++ {
			v = uint32(i)
			g.OutNgh(v, unite)
		}
	})
	ufFlatten(s, parent)
	return parent
}

// IncrementalCC answers connectivity after a stream of edge insertions
// without touching the original graph: prev is the labelling of the
// pre-batch graph as produced by UnionFindCC or IncrementalCC (a depth <= 1
// min-forest), and batches holds the edges inserted since. It unites only
// the batch edges — O(b · α(n)) expected work for b inserted edges,
// independent of the graph's size — and returns the updated canonical
// labelling, exactly equal to UnionFindCC on the post-insertion graph.
// prev is not modified.
func IncrementalCC(s *parallel.Scheduler, prev []uint32, batches []*graph.EdgeList) []uint32 {
	parent := make([]uint32, len(prev))
	s.ForRange(len(prev), 0, func(lo, hi int) {
		copy(parent[lo:hi], prev[lo:hi])
	})
	for _, el := range batches {
		s.Poll()
		s.For(el.Len(), 256, func(i int) {
			if u, v := el.U[i], el.V[i]; u != v {
				ufUnite(parent, u, v)
			}
		})
	}
	ufFlatten(s, parent)
	return parent
}
