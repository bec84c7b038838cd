package core

import (
	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/prims"
)

// MIS vertex states for the prefix-based algorithm.
const (
	misUndecided uint32 = iota
	misIn
	misOut
)

// MISPrefix is the prefix-based maximal independent set algorithm of
// Blelloch et al. — the baseline the paper compares its rootset-based MIS
// against ("we compared our rootset-based MIS implementation to the
// prefix-based implementation, and found that the rootset-based approach is
// between 1.1–3.5x faster"). It processes prefixes of the random order,
// repeatedly deciding vertices all of whose earlier neighbors are decided.
// The result is exactly the sequential greedy MIS over the order — identical
// to MIS(s) for the same seed.
func MISPrefix(s *parallel.Scheduler, g graph.Graph, seed uint64) []bool {
	n := g.N()
	rank := prims.InversePermutation(s, prims.RandomPermutation(s, n, seed))
	order := make([]uint32, n)
	s.ForRange(n, 0, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			order[rank[v]] = uint32(v)
		}
	})
	status := make([]uint32, n)
	// Prefix size ~ n/avgdeg keeps the expected intra-prefix conflict rate
	// constant, as in the paper's source.
	avgDeg := 1
	if n > 0 {
		avgDeg = g.M()/n + 1
	}
	prefix := n/(2*avgDeg) + 1
	for pos := 0; pos < n; {
		s.Poll()
		hi := pos + prefix
		if hi > n {
			hi = n
		}
		pending := order[pos:hi]
		for len(pending) > 0 {
			s.Poll()
			decided := make([]uint32, len(pending))
			s.ForRange(len(pending), 128, func(lo, hiB int) {
				// A vertex's state is decided by its earlier-rank
				// neighbors: Out when one is in the set, In when every
				// one is decided out, undecided otherwise.
				var rv, result uint32
				decide := func(u uint32, _ int32) bool {
					if rank[u] >= rv {
						return true
					}
					switch status[u] {
					case misIn:
						result = misOut
						return false
					case misUndecided:
						result = misUndecided
					}
					return true
				}
				for i := lo; i < hiB; i++ {
					v := pending[i]
					rv, result = rank[v], misIn
					g.OutNgh(v, decide)
					decided[i] = result
				}
			})
			// Commit decisions after the scan so one iteration's decisions
			// never read each other (keeps rounds deterministic).
			s.ForRange(len(pending), 0, func(lo, hiB int) {
				for i := lo; i < hiB; i++ {
					if decided[i] != misUndecided {
						status[pending[i]] = decided[i]
					}
				}
			})
			pending = prims.Filter(s, pending, func(v uint32) bool { return status[v] == misUndecided })
		}
		pos = hi
	}
	out := make([]bool, n)
	s.ForRange(n, 0, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			out[v] = status[v] == misIn
		}
	})
	return out
}
