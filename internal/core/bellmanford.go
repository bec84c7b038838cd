package core

import (
	"math"
	"sync/atomic"

	"repro/internal/atomics"
	"repro/internal/graph"
	"repro/internal/ligra"
	"repro/internal/parallel"
)

// Distance sentinels for general-weight SSSP.
const (
	// InfDist marks unreachable vertices.
	InfDist int64 = math.MaxInt64
	// NegInfDist marks vertices whose distance is -∞ because a
	// negative-weight cycle reachable from the source reaches them, per the
	// benchmark's I/O specification.
	NegInfDist int64 = math.MinInt64
)

// BellmanFord solves general-weight SSSP (Algorithm 2): frontier-based
// relaxations with a priority-write taking the minimum distance. It runs in
// O(diam(G)·m) work and O(diam(G) log n) depth on the PW-MT-RAM for graphs
// without negative cycles; if a negative-weight cycle is reachable from src,
// every vertex reachable from the cycle gets distance NegInfDist and the
// second result is true.
func BellmanFord(s *parallel.Scheduler, g graph.Graph, src uint32) ([]int64, bool) {
	n := g.N()
	dist := make([]int64, n)
	flags := make([]uint32, n)
	for i := range dist {
		dist[i] = InfDist
	}
	dist[src] = 0
	frontier := ligra.Single(n, src)
	update := func(s, d uint32, w int32) bool {
		nd := atomic.LoadInt64(&dist[s]) + int64(w)
		if atomics.WriteMin64(&dist[d], nd) {
			return atomics.TestAndSet(&flags[d])
		}
		return false
	}
	for round := 0; round < n; round++ {
		s.Poll()
		if frontier.Size() == 0 {
			return dist, false
		}
		frontier = ligra.EdgeMap(s, g, frontier, update, nil, ligra.Opts{})
		ligra.VertexMap(s, frontier, func(v uint32) { atomics.Store32(&flags[v], 0) })
	}
	if frontier.Size() == 0 {
		// The n'th relaxation round was the last one needed (a shortest
		// path can legitimately use n-1 edges); no cycle.
		return dist, false
	}
	// Still relaxing after n rounds: a negative cycle is reachable. Every
	// vertex reachable from the current frontier has distance -∞.
	reach := frontier
	for reach.Size() > 0 {
		s.Poll()
		ligra.VertexMap(s, reach, func(v uint32) { atomic.StoreInt64(&dist[v], NegInfDist) })
		reach = ligra.EdgeMap(s, g, reach,
			func(s, d uint32, _ int32) bool {
				if atomic.LoadInt64(&dist[d]) != NegInfDist {
					return atomics.TestAndSet(&flags[d])
				}
				return false
			},
			func(d uint32) bool { return atomic.LoadInt64(&dist[d]) != NegInfDist },
			ligra.Opts{})
		ligra.VertexMap(s, reach, func(v uint32) { atomics.Store32(&flags[v], 0) })
	}
	return dist, true
}
