package core

import (
	"math/bits"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/ligra"
	"repro/internal/parallel"
	"repro/internal/prims"
)

// Coloring computes a (Δ+1)-coloring with the synchronous Jones-Plassmann
// algorithm under the LLF (largest-log-degree-first) heuristic of
// Hasenplaugh et al. (Algorithm 12): vertices are ordered by ⌈log₂ degree⌉
// with random tie-breaking; each round the priority-DAG's roots take the
// smallest color unused by their already-colored neighbors, then decrement
// their successors' counters with fetch-and-add. Runs in O(m + n) work and
// O(L log Δ + log n) depth on the FA-MT-RAM.
//
// g must be symmetric. Returns the color of each vertex (0-based).
func Coloring(s *parallel.Scheduler, g graph.Graph, seed uint64) []uint32 {
	return coloring(s, g, seed, true)
}

// ColoringLF is Jones-Plassmann under the LF (largest-degree-first)
// heuristic; the paper's Tables 8-13 report the colors used by both LF and
// LLF. LF tends to use slightly fewer colors but admits adversarially deep
// priority DAGs, which is why LLF is the default.
func ColoringLF(s *parallel.Scheduler, g graph.Graph, seed uint64) []uint32 {
	return coloring(s, g, seed, false)
}

func coloring(s *parallel.Scheduler, g graph.Graph, seed uint64, llf bool) []uint32 {
	n := g.N()
	rank := prims.InversePermutation(s, prims.RandomPermutation(s, n, seed))
	key := make([]uint32, n)
	s.ForRange(n, 0, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			d := uint(g.OutDeg(uint32(v)))
			if llf {
				key[v] = uint32(bits.Len(d))
			} else {
				key[v] = uint32(d)
			}
		}
	})
	// precedes(u, v): u is colored before v under the chosen order.
	precedes := func(u, v uint32) bool {
		if key[u] != key[v] {
			return key[u] > key[v]
		}
		return rank[u] < rank[v]
	}
	priority := make([]uint32, n)
	s.ForRange(n, 64, func(lo, hi int) {
		var v, c uint32
		count := func(u uint32, _ int32) bool {
			if precedes(u, v) {
				c++
			}
			return true
		}
		for i := lo; i < hi; i++ {
			v, c = uint32(i), 0
			g.OutNgh(v, count)
			priority[i] = c
		}
	})
	colors := make([]uint32, n)
	s.ForRange(n, 0, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			colors[v] = Inf
		}
	})
	// assignAll colors a batch of roots; each worker block reuses one
	// saturation scratch buffer instead of allocating per vertex.
	assignAll := func(ids []uint32) {
		s.ForRange(len(ids), 64, func(lo, hi int) {
			var used []bool
			var d int
			mark := func(u uint32, _ int32) bool {
				if c := atomic.LoadUint32(&colors[u]); c != Inf && int(c) < d {
					used[c] = true
				}
				return true
			}
			for i := lo; i < hi; i++ {
				v := ids[i]
				// Smallest color not used by colored neighbors; at most
				// deg(v) neighbors, so a color in [0, deg(v)] is always
				// free.
				d = g.OutDeg(v) + 1
				if cap(used) < d {
					used = make([]bool, d)
				}
				used = used[:d]
				for c := range used {
					used[c] = false
				}
				g.OutNgh(v, mark)
				for c := range used {
					if !used[c] {
						atomic.StoreUint32(&colors[v], uint32(c))
						break
					}
				}
			}
		})
	}
	roots := ligra.FromSparse(n, prims.PackIndex(s, n, func(i int) bool { return priority[i] == 0 }))
	finished := 0
	for finished < n {
		s.Poll()
		assignAll(roots.Sparse(s))
		finished += roots.Size()
		roots = ligra.EdgeMap(s, g, roots,
			func(s, d uint32, _ int32) bool {
				if precedes(s, d) {
					return atomic.AddUint32(&priority[d], ^uint32(0)) == 0
				}
				return false
			},
			func(d uint32) bool { return atomic.LoadUint32(&priority[d]) > 0 },
			ligra.Opts{})
	}
	return colors
}

// NumColors returns 1 + the maximum color in a coloring (the count the
// paper reports in Tables 8-13).
func NumColors(s *parallel.Scheduler, colors []uint32) int {
	if len(colors) == 0 {
		return 0
	}
	return int(prims.Max(s, colors)) + 1
}

// ValidColoring reports whether no edge of g is monochromatic.
func ValidColoring(s *parallel.Scheduler, g graph.Graph, colors []uint32) bool {
	bad := prims.Count(s, g.N(), func(v int) bool {
		conflict := false
		g.OutNgh(uint32(v), func(u uint32, _ int32) bool {
			if colors[u] == colors[uint32(v)] {
				conflict = true
				return false
			}
			return true
		})
		return conflict
	})
	return bad == 0
}
