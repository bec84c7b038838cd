package core

import (
	"sync/atomic"

	"repro/internal/atomics"
	"repro/internal/graph"
	"repro/internal/ligra"
	"repro/internal/parallel"
	"repro/internal/prims"
)

// MIS computes a maximal independent set (Algorithm 10, the rootset-based
// algorithm of Blelloch et al.): vertices are randomly prioritized; the
// priority-DAG's roots join the set each round, their neighbors are removed,
// and the removed vertices' lower-priority neighbors have their in-degree
// counters decremented with fetch-and-add. Runs in O(m) expected work and
// O(log² n) depth w.h.p. on the FA-MT-RAM. Returns inSet[v] == true iff v
// is in the MIS; the set equals the one the sequential greedy algorithm
// produces on the random order.
//
// g must be symmetric.
func MIS(s *parallel.Scheduler, g graph.Graph, seed uint64) []bool {
	n := g.N()
	rank := prims.InversePermutation(s, prims.RandomPermutation(s, n, seed))
	// priority[v] = number of neighbors that precede v in the random order.
	priority := make([]uint32, n)
	s.ForRange(n, 64, func(lo, hi int) {
		var rv, c uint32
		count := func(u uint32, _ int32) bool {
			if rank[u] < rv {
				c++
			}
			return true
		}
		for v := lo; v < hi; v++ {
			rv, c = rank[v], 0
			g.OutNgh(uint32(v), count)
			priority[v] = c
		}
	})
	inSet := make([]bool, n)
	removedFlag := make([]uint32, n)
	roots := ligra.FromSparse(n, prims.PackIndex(s, n, func(i int) bool { return priority[i] == 0 }))
	finished := 0
	for finished < n {
		s.Poll()
		ligra.VertexMap(s, roots, func(v uint32) { inSet[v] = true })
		// Neighbors of the rootset that are still active leave the graph.
		removed := ligra.EdgeMap(s, g, roots,
			func(s, d uint32, _ int32) bool { return atomics.TestAndSet(&removedFlag[d]) },
			func(d uint32) bool { return atomic.LoadUint32(&priority[d]) > 0 },
			ligra.Opts{})
		ligra.VertexMap(s, removed, func(v uint32) { atomic.StoreUint32(&priority[v], 0) })
		finished += roots.Size() + removed.Size()
		// Decrement the priority of active successors of removed vertices;
		// those reaching zero become the next rootset.
		roots = ligra.EdgeMap(s, g, removed,
			func(s, d uint32, _ int32) bool {
				if rank[s] < rank[d] {
					return atomic.AddUint32(&priority[d], ^uint32(0)) == 0
				}
				return false
			},
			func(d uint32) bool { return atomic.LoadUint32(&priority[d]) > 0 },
			ligra.Opts{})
	}
	return inSet
}
