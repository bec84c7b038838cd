package core

import (
	"repro/internal/atomics"
	"repro/internal/graph"
	"repro/internal/ligra"
	"repro/internal/parallel"
)

// BFS computes shortest-path hop distances from src (Algorithm 1): D[v] is
// the number of edges on a shortest path from src to v, or Inf if v is
// unreachable. It runs in O(m) work and O(diam(G) log n) depth on the
// TS-MT-RAM: each round applies edgeMap with a test-and-set acquiring
// unvisited vertices.
func BFS(s *parallel.Scheduler, g graph.Graph, src uint32) []uint32 {
	n := g.N()
	dist := make([]uint32, n)
	visited := make([]uint32, n)
	for i := range dist {
		dist[i] = Inf
	}
	dist[src] = 0
	visited[src] = 1
	frontier := ligra.Single(n, src)
	round := uint32(0)
	for frontier.Size() > 0 {
		s.Poll()
		round++
		r := round
		frontier = ligra.EdgeMap(s, g, frontier,
			func(s, d uint32, _ int32) bool {
				if atomics.TestAndSet(&visited[d]) {
					dist[d] = r
					return true
				}
				return false
			},
			func(d uint32) bool { return atomics.Load32(&visited[d]) == 0 },
			ligra.Opts{})
	}
	return dist
}

// MultiBFS runs a breadth-first search simultaneously from all roots,
// returning hop distances and the BFS forest: parent[v] is the frontier
// vertex that acquired v (parent[root] = root; Inf if unreached). The
// frontier logic is identical to BFS; the roots simply seed round zero.
func MultiBFS(s *parallel.Scheduler, g graph.Graph, roots []uint32) (dist, parent []uint32) {
	n := g.N()
	dist = make([]uint32, n)
	parent = make([]uint32, n)
	visited := make([]uint32, n)
	for i := range dist {
		dist[i] = Inf
		parent[i] = Inf
	}
	for _, r := range roots {
		dist[r] = 0
		parent[r] = r
		visited[r] = 1
	}
	frontier := ligra.FromSparse(n, roots)
	round := uint32(0)
	for frontier.Size() > 0 {
		s.Poll()
		round++
		r := round
		frontier = ligra.EdgeMap(s, g, frontier,
			func(s, d uint32, _ int32) bool {
				if atomics.TestAndSet(&visited[d]) {
					dist[d] = r
					parent[d] = s
					return true
				}
				return false
			},
			func(d uint32) bool { return atomics.Load32(&visited[d]) == 0 },
			ligra.Opts{})
	}
	return dist, parent
}
