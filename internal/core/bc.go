package core

import (
	"repro/internal/atomics"
	"repro/internal/graph"
	"repro/internal/ligra"
	"repro/internal/parallel"
)

// BC computes single-source betweenness centrality contributions
// (Algorithm 3, Brandes' two-phase algorithm): S[v] is the dependency of src
// on v, i.e. the sum over targets t of the fraction of shortest (src, t)
// paths passing through v. It runs in O(m) work and O(diam(G) log n) depth
// on the FA-MT-RAM; shortest-path counts and dependencies are accumulated
// with fetch-and-add.
//
// For directed graphs the backward phase traverses the transpose, so g must
// carry one.
func BC(s *parallel.Scheduler, g graph.Graph, src uint32) []float64 {
	n := g.N()
	// numPaths and dependencies are float64 accumulated via CAS on bits.
	numPaths := make([]uint64, n)
	dep := make([]uint64, n)
	visited := make([]uint32, n)
	atomics.StoreFloat64(&numPaths[src], 1)
	visited[src] = 1

	// Forward phase: count shortest paths level by level, remembering the
	// frontiers. Visited flags flip only between rounds (via the vertexMap
	// below) so every frontier predecessor of a vertex contributes its path
	// count before the vertex's cond turns false; the first contributor
	// (previous count zero) adds the vertex to the next frontier.
	var levels []ligra.VertexSubset
	frontier := ligra.Single(n, src)
	for frontier.Size() > 0 {
		s.Poll()
		levels = append(levels, frontier)
		frontier = ligra.EdgeMap(s, g, frontier,
			func(s, d uint32, _ int32) bool {
				prev := atomics.AddFloat64Prev(&numPaths[d], atomics.LoadFloat64(&numPaths[s]))
				return prev == 0
			},
			func(d uint32) bool { return atomics.Load32(&visited[d]) == 0 },
			ligra.Opts{})
		ligra.VertexMap(s, frontier, func(v uint32) { atomics.Store32(&visited[v], 1) })
	}

	// Backward phase: process levels deepest-first, pushing dependency
	// contributions to the previous level over reversed edges.
	s.ForRange(n, 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			visited[i] = 0
		}
	})
	gt := g.Transpose()
	for round := len(levels) - 1; round >= 0; round-- {
		s.Poll()
		f := levels[round]
		ligra.VertexMap(s, f, func(v uint32) { atomics.Store32(&visited[v], 1) })
		if round == 0 {
			break
		}
		// Push from the deeper vertices s to their shallower predecessors d:
		// edge (d, s) in G is edge (s, d) in the transpose.
		ligra.EdgeMap(s, gt, f,
			func(s, d uint32, _ int32) bool {
				if atomics.Load32(&visited[d]) == 0 {
					contribution := (atomics.LoadFloat64(&numPaths[d]) / atomics.LoadFloat64(&numPaths[s])) *
						(1 + atomics.LoadFloat64(&dep[s]))
					atomics.AddFloat64(&dep[d], contribution)
				}
				return false
			},
			func(d uint32) bool { return atomics.Load32(&visited[d]) == 0 },
			ligra.Opts{NoOutput: true})
	}
	out := make([]float64, n)
	s.ForRange(n, 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = atomics.LoadFloat64(&dep[i])
		}
	})
	// The source's accumulated value counts paths it terminates; by
	// convention its dependency is zero.
	out[src] = 0
	return out
}
