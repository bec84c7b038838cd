package core

import (
	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/prims"
)

// SpanningForest computes a rooted spanning forest of a symmetric graph:
// UnionFindCC labels each vertex with its component's minimum vertex ID,
// those vertices (ascending) are the roots, and a multi-source BFS from the
// roots builds the forest. Returns the parent of each vertex (roots point to
// themselves), the BFS level of each vertex, and the roots. Biconnectivity
// (Algorithm 7) consumes this. The BFS is the paper's, O(m) work and
// O(diam(G) log n) depth; the union-find is deterministic at any thread
// count (see incrcc.go) but carries no depth bound.
func SpanningForest(s *parallel.Scheduler, g graph.Graph) (parent, level, roots []uint32) {
	labels := UnionFindCC(s, g)
	roots = prims.PackIndex(s, len(labels), func(v int) bool { return labels[v] == uint32(v) })
	level, parent = MultiBFS(s, g, roots)
	return parent, level, roots
}

// ForestEdgeCount returns the number of tree edges in a parent array
// (vertices with parent != self and != Inf).
func ForestEdgeCount(s *parallel.Scheduler, parent []uint32) int {
	return prims.Count(s, len(parent), func(i int) bool {
		return parent[i] != Inf && parent[i] != uint32(i)
	})
}
