package core

import (
	"math"
	"sync/atomic"

	"repro/internal/atomics"
	"repro/internal/bucket"
	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/prims"
	"repro/internal/xrand"
)

// ApproxSetCover computes an O(log n)-approximate set cover (Algorithm 14,
// Blelloch et al.'s MaNIS-based algorithm as implemented in Julienne, with
// the paper's fix of regenerating random priorities for active sets every
// round) in O(m) expected work and O(log³ n) depth w.h.p. on the PW-MT-RAM,
// given Julienne's semisort for the bucket moves; here package bucket files
// and extracts a round's k sets in sequential O(k) passes, so a round's
// depth is O(k + log n).
//
// The instance follows the paper's experiments: the elements are the
// vertices of g and the set for vertex v covers N(v). Sets are bucketed by
// ⌊log_{1+ε} degree⌋ and processed from largest degree down; each round the
// top bucket's sets try to acquire their uncovered elements with randomly
// prioritized priority-writes, sets that acquire at least (1+ε)^(b-1)
// elements enter the cover, and the rest are rebucketed by their shrunken
// degree. Returns the chosen set IDs. g must be symmetric: in a directed
// graph a vertex with out-edges but no in-edge lies in no set, so no cover
// satisfies CoverIsValid.
func ApproxSetCover(s *parallel.Scheduler, g graph.Graph, eps float64, seed uint64) []uint32 {
	n := g.N()
	if eps <= 0 {
		eps = 0.01
	}
	log1p := math.Log(1 + eps)
	bucketOf := func(d int) uint32 {
		if d <= 0 {
			return bucket.Nil
		}
		return uint32(math.Log(float64(d)) / log1p)
	}
	// Mutable copy of the adjacency so packing out covered elements is an
	// in-place compaction (the paper's "pack out neighbors of sets that are
	// covered").
	deg := make([]int32, n)
	off := make([]int64, n+1)
	dtmp := make([]int64, n)
	s.ForRange(n, 0, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			deg[v] = int32(g.OutDeg(uint32(v)))
			dtmp[v] = int64(deg[v])
		}
	})
	total := prims.Scan(s, dtmp, off[:n])
	off[n] = total
	adj := make([]uint32, total)
	s.ForRange(n, 64, func(lo, hi int) {
		var i int64
		copyNgh := func(u uint32, _ int32) bool {
			adj[i] = u
			i++
			return true
		}
		for v := lo; v < hi; v++ {
			i = off[v]
			g.OutNgh(uint32(v), copyNgh)
		}
	})
	maxDeg := 0
	for v := 0; v < n; v++ {
		if int(deg[v]) > maxDeg {
			maxDeg = int(deg[v])
		}
	}
	covered := make([]uint32, n)
	owner := newFilled64(s, n)
	b := bucket.New(s, n, 128, bucket.Decreasing, bucketOf(maxDeg), func(s uint32) uint32 {
		return bucketOf(int(deg[s]))
	})
	var cover []uint32
	round := uint64(0)
	for {
		s.Poll()
		bkt, sets := b.NextBucket()
		if bkt == bucket.Nil {
			break
		}
		round++
		// Pack out covered elements and compute current degrees.
		s.ForRange(len(sets), 64, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				s := sets[i]
				lo64 := off[s]
				d := int64(0)
				for j := lo64; j < lo64+int64(deg[s]); j++ {
					if atomics.Load32(&covered[adj[j]]) == 0 {
						adj[lo64+d] = adj[j]
						d++
					}
				}
				deg[s] = int32(d)
			}
		})
		// Split into sets still in this bucket (SC) and sets to rebucket.
		sc := prims.Filter(s, sets, func(s uint32) bool { return bucketOf(int(deg[s])) == bkt })
		sr := prims.Filter(s, sets, func(s uint32) bool { return bucketOf(int(deg[s])) != bkt })
		if len(sc) > 0 {
			// Fresh random priorities each round (the paper's fix: reusing
			// vertex IDs causes worst-case behaviour on meshes/tori).
			pri := make([]uint32, len(sc))
			s.ForRange(len(sc), 0, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					pri[i] = xrand.Hash32(seed^round, uint64(i))
				}
			})
			// Acquire elements with priority-writes.
			s.For(len(sc), 32, func(i int) {
				s := sc[i]
				key := uint64(pri[i])<<32 | uint64(s)
				for j := off[s]; j < off[s]+int64(deg[s]); j++ {
					atomics.WriteMinU64(&owner[adj[j]], key)
				}
			})
			// Threshold for joining the cover: (1+ε)^max(b-1, 0).
			thresh := int32(math.Ceil(math.Pow(1+eps, math.Max(float64(bkt)-1, 0))))
			won := make([]int32, len(sc))
			s.For(len(sc), 32, func(i int) {
				s := sc[i]
				w := int32(0)
				for j := off[s]; j < off[s]+int64(deg[s]); j++ {
					if uint32(atomic.LoadUint64(&owner[adj[j]])) == s {
						w++
					}
				}
				won[i] = w
			})
			isWinner := make([]bool, len(sc))
			s.For(len(sc), 256, func(i int) { isWinner[i] = won[i] >= thresh })
			winners := prims.MapFilter(s, len(sc),
				func(i int) bool { return isWinner[i] },
				func(i int) uint32 { return sc[i] })
			// Winners cover the elements they acquired (owner must stay
			// stable while being read, so the reservation reset is a
			// separate pass).
			s.For(len(sc), 32, func(i int) {
				if !isWinner[i] {
					return
				}
				s := sc[i]
				for j := off[s]; j < off[s]+int64(deg[s]); j++ {
					e := adj[j]
					if uint32(atomic.LoadUint64(&owner[e])) == s {
						atomics.Store32(&covered[e], 1)
					}
				}
			})
			// Same-value stores to shared elements must be atomic.
			s.For(len(sc), 32, func(i int) {
				s := sc[i]
				for j := off[s]; j < off[s]+int64(deg[s]); j++ {
					atomic.StoreUint64(&owner[adj[j]], ^uint64(0))
				}
			})
			cover = append(cover, winners...)
			losers := prims.MapFilter(s, len(sc),
				func(i int) bool { return !isWinner[i] },
				func(i int) uint32 { return sc[i] })
			// Winners leave the structure; mark their degree spent.
			s.ForRange(len(winners), 0, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					deg[winners[i]] = 0
				}
			})
			b.Update(losers)
		}
		b.Update(sr)
	}
	return cover
}

// CoverIsValid reports whether every vertex of g with at least one neighbor
// is covered: it belongs to N(s) for some chosen set s.
func CoverIsValid(s *parallel.Scheduler, g graph.Graph, cover []uint32) bool {
	n := g.N()
	covered := make([]uint32, n)
	s.ForRange(len(cover), 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			g.OutNgh(cover[i], func(u uint32, _ int32) bool {
				atomics.Store32(&covered[u], 1)
				return true
			})
		}
	})
	missing := prims.Count(s, n, func(v int) bool {
		return g.OutDeg(uint32(v)) > 0 && covered[v] == 0
	})
	return missing == 0
}
