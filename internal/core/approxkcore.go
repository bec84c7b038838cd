package core

import (
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/prims"
)

// ApproxKCore computes the approximate coreness used by Slota et al.'s
// supercomputer implementation, which the paper compares against in Table 7
// ("the approximate k-core of a vertex is the coreness of the vertex rounded
// up to the nearest power of 2"; the paper's exact k-core beats it while
// using 113x fewer cores). Thresholded peeling with doubling thresholds
// assigns every vertex the smallest threshold in {0, 1, 2, 4, 8, ...} at or
// above its exact coreness, in O(m log k_max) work.
func ApproxKCore(s *parallel.Scheduler, g graph.Graph) []uint32 {
	n := g.N()
	deg := make([]uint32, n)
	core := make([]uint32, n)
	removed := make([]bool, n)
	remaining := n
	s.ForRange(n, 0, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			deg[v] = uint32(g.OutDeg(uint32(v)))
		}
	})
	t := uint32(0)
	for remaining > 0 {
		for {
			s.Poll()
			peel := prims.PackIndex(s, n, func(v int) bool {
				return !removed[v] && atomic.LoadUint32(&deg[v]) <= t
			})
			if len(peel) == 0 {
				break
			}
			remaining -= len(peel)
			s.ForRange(len(peel), 0, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					removed[peel[i]] = true
					core[peel[i]] = t
				}
			})
			s.ForRange(len(peel), 32, func(lo, hi int) {
				decrement := func(u uint32, _ int32) bool {
					if !removed[u] {
						atomic.AddUint32(&deg[u], ^uint32(0))
					}
					return true
				}
				for i := lo; i < hi; i++ {
					g.OutNgh(peel[i], decrement)
				}
			})
		}
		if t == 0 {
			t = 1
		} else {
			t *= 2
		}
	}
	return core
}
