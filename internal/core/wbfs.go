package core

import (
	"repro/internal/atomics"
	"repro/internal/bucket"
	"repro/internal/graph"
	"repro/internal/ligra"
	"repro/internal/parallel"
)

// WeightedBFS solves integral-weight SSSP (Algorithm 4, the paper's wBFS
// from Julienne): D[v] is the shortest-path distance from src under
// positive integer edge weights, or Inf if unreachable. Distances index a
// Julienne bucketing structure; each step extracts the minimum bucket and
// relaxes its out-edges with a priority-write. It runs in O(m) expected
// work and O(diam(G) log n) depth w.h.p. on the PW-MT-RAM given Julienne's
// semisort for the bucket moves; here package bucket files and extracts a
// round's k vertices in sequential O(k) passes, so a round's depth is
// O(k + log n).
//
// Edge weights must be >= 1 (the paper's inputs draw them from [1, log n)).
func WeightedBFS(s *parallel.Scheduler, g graph.Graph, src uint32) []uint32 {
	n := g.N()
	dist := make([]uint32, n)
	flags := make([]uint32, n)
	for i := range dist {
		dist[i] = Inf
	}
	dist[src] = 0
	// Bucket i holds vertices with current tentative distance i; unreached
	// vertices (Inf = bucket.Nil) are not filed.
	b := bucket.New(s, n, 128, bucket.Increasing, 0, func(v uint32) uint32 {
		return atomics.Load32(&dist[v])
	})
	update := func(s, d uint32, w int32) bool {
		nd := atomics.Load32(&dist[s]) + uint32(w)
		if atomics.WriteMin32(&dist[d], nd) {
			return atomics.TestAndSet(&flags[d])
		}
		return false
	}
	for {
		s.Poll()
		bkt, ids := b.NextBucket()
		if bkt == bucket.Nil {
			break
		}
		moved := ligra.EdgeMap(s, g, ligra.FromSparse(n, ids), update, nil, ligra.Opts{})
		// Packing moved once, before the reset, lets VertexMap walk the
		// packed members instead of a dense output's n flags.
		b.Update(moved.Sparse(s))
		ligra.VertexMap(s, moved, func(v uint32) { atomics.Store32(&flags[v], 0) })
	}
	return dist
}
