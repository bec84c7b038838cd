package core

import (
	"sync/atomic"

	"repro/internal/atomics"
	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/prims"
	"repro/internal/xrand"
)

// MaximalMatching computes a maximal matching (Algorithm 11, the
// prefix-based algorithm of Blelloch et al. with the paper's filtering
// optimization) in O(m) expected work and O(log³ m / log log m) depth w.h.p.
// on the PW-MT-RAM. Edges carry random priorities; filtering steps extract
// the ~3n/2 highest-priority remaining edges and run the parallel greedy
// matching on them (rounds of priority-writes where locally-minimal edges
// match), then pack out edges incident to matched vertices. The result
// equals the greedy matching over the random edge order.
//
// g must be symmetric.
func MaximalMatching(s *parallel.Scheduler, g graph.Graph, seed uint64) []WEdge {
	n := g.N()
	// One direction per undirected edge: the memory optimization the paper
	// applies to make edgelist algorithms fit ("we can pack out the edges
	// so that each undirected edge is only inspected once").
	eu, ev, _ := extractEdges(s, g, false)
	m := len(eu)
	// Unique random key per edge: (hash, id).
	key := make([]uint64, m)
	s.ForRange(m, 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			key[i] = uint64(xrand.Hash32(seed, uint64(i)))<<32 | uint64(uint32(i))
		}
	})
	matched := make([]uint32, n)
	minKey := newFilled64(s, n)
	ids := make([]uint32, m)
	s.ForRange(m, 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ids[i] = uint32(i)
		}
	})
	var out []WEdge
	target := 3 * n / 2
	for round := 0; len(ids) > 0; round++ {
		s.Poll()
		var prefix, rest []uint32
		if len(ids) > 2*target {
			pivot := prims.ApproxThreshold(s, keysOf(s, key, ids), target, seed^uint64(round))
			prefix = prims.Filter(s, ids, func(id uint32) bool { return key[id] <= pivot })
			rest = prims.Filter(s, ids, func(id uint32) bool { return key[id] > pivot })
		} else {
			prefix, rest = ids, nil
		}
		out = greedyMatch(s, eu, ev, key, prefix, matched, minKey, out)
		if rest == nil {
			break
		}
		// Pack out edges whose endpoints matched during this prefix.
		ids = prims.Filter(s, rest, func(id uint32) bool {
			return matched[eu[id]] == 0 && matched[ev[id]] == 0
		})
	}
	return out
}

func keysOf(s *parallel.Scheduler, key []uint64, ids []uint32) []uint64 {
	ks := make([]uint64, len(ids))
	s.ForRange(len(ids), 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ks[i] = key[ids[i]]
		}
	})
	return ks
}

// greedyMatch runs the parallel greedy maximal matching over the given edge
// ids: each round, every unmatched endpoint priority-writes its minimum
// incident key; edges winning both endpoints enter the matching; edges with
// a matched endpoint are packed out. The rounds shrink the prefix
// geometrically w.h.p.
func greedyMatch(s *parallel.Scheduler, eu, ev []uint32, key []uint64, ids []uint32, matched []uint32, minKey []uint64, out []WEdge) []WEdge {
	for len(ids) > 0 {
		s.Poll()
		s.ForRange(len(ids), 512, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				id := ids[i]
				atomics.WriteMinU64(&minKey[eu[id]], key[id])
				atomics.WriteMinU64(&minKey[ev[id]], key[id])
			}
		})
		winners := prims.Filter(s, ids, func(id uint32) bool {
			return minKey[eu[id]] == key[id] && minKey[ev[id]] == key[id]
		})
		for _, id := range winners {
			matched[eu[id]] = 1
			matched[ev[id]] = 1
			out = append(out, WEdge{U: eu[id], V: ev[id], W: 1})
		}
		// Reset priority cells before the next round (endpoints are shared
		// between edges, so the same-value stores must be atomic).
		s.ForRange(len(ids), 512, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				id := ids[i]
				atomic.StoreUint64(&minKey[eu[id]], ^uint64(0))
				atomic.StoreUint64(&minKey[ev[id]], ^uint64(0))
			}
		})
		ids = prims.Filter(s, ids, func(id uint32) bool {
			return matched[eu[id]] == 0 && matched[ev[id]] == 0
		})
	}
	return out
}

// MatchingIsValid reports whether the edge set is a matching of g (no shared
// endpoints) and MatchingIsMaximal additionally checks maximality.
func MatchingIsValid(g graph.Graph, match []WEdge) bool {
	n := g.N()
	used := make([]bool, n)
	for _, e := range match {
		if e.U == e.V || int(e.U) >= n || int(e.V) >= n {
			return false
		}
		if used[e.U] || used[e.V] {
			return false
		}
		used[e.U] = true
		used[e.V] = true
	}
	return true
}

// MatchingIsMaximal reports whether no edge of g has both endpoints
// unmatched.
func MatchingIsMaximal(s *parallel.Scheduler, g graph.Graph, match []WEdge) bool {
	n := g.N()
	used := make([]bool, n)
	for _, e := range match {
		used[e.U] = true
		used[e.V] = true
	}
	violations := prims.Count(s, n, func(v int) bool {
		bad := false
		g.OutNgh(uint32(v), func(u uint32, _ int32) bool {
			if !used[u] && !used[uint32(v)] {
				bad = true
				return false
			}
			return true
		})
		return bad
	})
	return violations == 0
}
