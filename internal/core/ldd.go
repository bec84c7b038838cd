package core

import (
	"math"

	"repro/internal/atomics"
	"repro/internal/graph"
	"repro/internal/ligra"
	"repro/internal/parallel"
	"repro/internal/prims"
	"repro/internal/xrand"
)

// LDD computes a (2β, O(log n / β)) low-diameter decomposition
// (Algorithm 5, Miller-Peng-Xu with the non-deterministic tie-breaking of
// Shun et al.): every vertex is assigned the ID of a cluster center; each
// cluster has low diameter and at most a β fraction of edges cross clusters
// in expectation. Runs in O(m) expected work and O(log² n) depth w.h.p. on
// the TS-MT-RAM.
//
// Each vertex draws a shift δ_v ~ Exp(β); vertex v starts a ball-growing BFS
// at round ⌊δ_max − δ_v⌋ unless already claimed. Vertices are claimed by the
// first search to reach them (ties broken arbitrarily, which the paper shows
// affects the cut fraction by only a constant factor).
func LDD(s *parallel.Scheduler, g graph.Graph, beta float64, seed uint64) []uint32 {
	n := g.N()
	cluster := make([]uint32, n)
	for i := range cluster {
		cluster[i] = Inf
	}
	if n == 0 {
		return cluster
	}
	// Draw shifts and bucket vertices by start round ⌊δ_max − δ_v⌋.
	shifts := make([]float64, n)
	s.ForRange(n, 0, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			shifts[v] = xrand.Exp(seed, uint64(v), beta)
		}
	})
	maxShift := prims.Reduce(s, shifts, 0, math.Max)
	// starts[r] lists the vertices whose search may begin at round r. The
	// round is the low word and the vertex the high: a stable sort of the
	// round bits alone keeps each round's vertices in id order.
	packed := make([]uint64, n)
	s.ForRange(n, 0, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			r := uint64(maxShift - shifts[v]) // floor; in [0, maxShift]
			packed[v] = uint64(v)<<32 | r
		}
	})
	prims.RadixSortU64(s, packed, prims.BitsFor(uint64(maxShift)))
	roundStarts := prims.PackIndex(s, n, func(i int) bool {
		return i == 0 || uint32(packed[i]) != uint32(packed[i-1])
	})

	numVisited := 0
	frontier := ligra.Empty(n)
	nextStart := 0
	round := uint32(0)
	for numVisited < n {
		s.Poll()
		// Admit new centers whose start time has arrived and which are
		// still unclaimed.
		var newcomers []uint32
		for nextStart < len(roundStarts) {
			s.Poll()
			idx := int(roundStarts[nextStart])
			r := uint32(packed[idx])
			if r > round {
				break
			}
			end := n
			if nextStart+1 < len(roundStarts) {
				end = int(roundStarts[nextStart+1])
			}
			fresh := prims.MapFilter(s, end-idx,
				func(i int) bool { return atomics.Load32(&cluster[packed[idx+i]>>32]) == Inf },
				func(i int) uint32 { return uint32(packed[idx+i] >> 32) })
			for _, v := range fresh {
				cluster[v] = v
			}
			newcomers = append(newcomers, fresh...)
			nextStart++
		}
		if len(newcomers) > 0 {
			merged := append(newcomers, frontier.Sparse(s)...)
			frontier = ligra.FromSparse(n, merged)
		}
		numVisited += len(newcomers)
		next := ligra.EdgeMap(s, g, frontier,
			func(s, d uint32, _ int32) bool {
				return atomics.CAS32(&cluster[d], Inf, atomics.Load32(&cluster[s]))
			},
			func(d uint32) bool { return atomics.Load32(&cluster[d]) == Inf },
			ligra.Opts{})
		numVisited += next.Size()
		frontier = next
		round++
	}
	return cluster
}

// NumClusters returns the number of distinct cluster IDs in an LDD (or any
// labelling), plus a dense renumbering old-label -> [0, k).
func NumClusters(s *parallel.Scheduler, labels []uint32) (int, []uint32) {
	n := len(labels)
	isRoot := make([]uint32, n)
	s.ForRange(n, 0, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			// Many vertices share a label; the same-value store is atomic.
			atomics.Store32(&isRoot[labels[v]], 1)
		}
	})
	roots := prims.PackIndex(s, n, func(i int) bool { return isRoot[i] == 1 })
	renumber := make([]uint32, n)
	s.ForRange(len(roots), 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			renumber[roots[i]] = uint32(i)
		}
	})
	return len(roots), renumber
}
