package core

import (
	"sync/atomic"

	"repro/internal/atomics"
	"repro/internal/bucket"
	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/prims"
)

// KCore computes the coreness of every vertex (Algorithm 13, Julienne's
// work-efficient peeling): vertices live in buckets indexed by induced
// degree; each step peels the minimum bucket, counts the edges removed from
// each remaining neighbor with the work-efficient histogram (§5), and moves
// affected vertices to new buckets. Runs in O(m + n) expected work and
// O(ρ log n) depth w.h.p. on the FA-MT-RAM, where ρ is the graph's peeling
// complexity. Returns the coreness array and ρ (the number of peeling
// rounds, reported in Table 3).
//
// g must be symmetric.
func KCore(s *parallel.Scheduler, g graph.Graph) (coreness []uint32, rho int) {
	return kcore(s, g, true)
}

// KCoreFetchAndAdd is KCore using direct fetch-and-add counters instead of
// the histogram — the contended baseline of the paper's Table 6 ablation
// ("k-core (fetch-and-add)" vs "k-core (histogram)").
func KCoreFetchAndAdd(s *parallel.Scheduler, g graph.Graph) (coreness []uint32, rho int) {
	return kcore(s, g, false)
}

func kcore(s *parallel.Scheduler, g graph.Graph, useHistogram bool) ([]uint32, int) {
	n := g.N()
	deg := make([]uint32, n)
	finishedFlag := make([]bool, n)
	s.ForRange(n, 0, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			deg[v] = uint32(g.OutDeg(uint32(v)))
		}
	})
	b := bucket.New(s, n, 128, bucket.Increasing, 0, func(v uint32) uint32 {
		if finishedFlag[v] {
			return bucket.Nil
		}
		return atomic.LoadUint32(&deg[v])
	})
	keyBits := prims.BitsFor(uint64(n))
	// Scratch for the fetch-and-add variant.
	var faDelta []uint32
	var faTouched []uint32
	if !useHistogram {
		faDelta = make([]uint32, n)
		faTouched = make([]uint32, n)
	}
	finished := 0
	rounds := 0
	// Scratch buffers reused across the ρ peeling rounds; per-round
	// allocation is what made early rounds GC-bound.
	var degs, offsets []int64
	var removedNghs, aliveBuf []uint32
	for finished < n {
		s.Poll()
		k, ids := b.NextBucket()
		if k == bucket.Nil {
			break
		}
		rounds++
		finished += len(ids)
		s.ForRange(len(ids), 0, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				finishedFlag[ids[i]] = true
				deg[ids[i]] = k // coreness value
			}
		})
		// Gather the endpoints of removed edges that are still alive.
		degs = growI64(degs, len(ids))
		offsets = growI64(offsets, len(ids))
		s.ForRange(len(ids), 0, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				degs[i] = int64(g.OutDeg(ids[i]))
			}
		})
		total := prims.Scan(s, degs[:len(ids)], offsets[:len(ids)])
		removedNghs = growU32(removedNghs, int(total))
		gatherNeighbors(s, g, ids, offsets, removedNghs)
		aliveBuf = growU32(aliveBuf, int(total))
		nAlive := prims.FilterInto(s, removedNghs[:total], aliveBuf, func(u uint32) bool { return !finishedFlag[u] })
		alive := aliveBuf[:nAlive]
		// The decrement is side-effecting and must run exactly once per
		// distinct neighbor, so compute moved-flags in a single pass and
		// pack afterwards (Filter/MapFilter predicates run twice).
		var moved []uint32
		if useHistogram {
			// Work-efficient histogram: one counter touch per distinct
			// neighbor, no contention (§5).
			nghIDs, counts := prims.Histogram(s, alive, keyBits)
			movedFlag := make([]bool, len(nghIDs))
			s.ForRange(len(nghIDs), 512, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					movedFlag[i] = decrementCoreness(deg, nghIDs[i], counts[i], k)
				}
			})
			moved = prims.MapFilter(s, len(nghIDs),
				func(i int) bool { return movedFlag[i] },
				func(i int) uint32 { return nghIDs[i] })
		} else {
			// Contended baseline: fetch-and-add a per-vertex counter.
			var cnt atomic.Int64
			s.ForRange(len(alive), 2048, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					u := alive[i]
					if atomics.FetchAndAdd32(&faDelta[u], 1) == 0 {
						faTouched[cnt.Add(1)-1] = u
					}
				}
			})
			touched := faTouched[:cnt.Load()]
			movedFlag := make([]bool, len(touched))
			s.ForRange(len(touched), 512, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					u := touched[i]
					d := faDelta[u]
					faDelta[u] = 0
					movedFlag[i] = decrementCoreness(deg, u, d, k)
				}
			})
			moved = prims.MapFilter(s, len(touched),
				func(i int) bool { return movedFlag[i] },
				func(i int) uint32 { return touched[i] })
		}
		b.Update(moved)
	}
	return deg, rounds
}

func growI64(buf []int64, n int) []int64 {
	if cap(buf) < n {
		return make([]int64, n)
	}
	return buf[:n]
}

func growU32(buf []uint32, n int) []uint32 {
	if cap(buf) < n {
		return make([]uint32, n)
	}
	return buf[:n]
}

// gatherNeighbors writes the out-neighbors of each ids[i], in adjacency
// order, into dst from offsets[i] on (offsets is the exclusive scan of the
// ids' degrees).
func gatherNeighbors(s *parallel.Scheduler, g graph.Graph, ids []uint32, offsets []int64, dst []uint32) {
	s.ForRange(len(ids), 16, func(lo, hi int) {
		var o int64
		gather := func(u uint32, _ int32) bool {
			dst[o] = u
			o++
			return true
		}
		for i := lo; i < hi; i++ {
			o = offsets[i]
			g.OutNgh(ids[i], gather)
		}
	})
}

// decrementCoreness applies Algorithm 13's DecrementCoreness: reduce v's
// induced degree by removed edges, clamped below at the current core k.
// Reports whether v's bucket changed.
func decrementCoreness(deg []uint32, v, removed, k uint32) bool {
	induced := deg[v]
	if induced <= k {
		return false
	}
	newDeg := k
	if induced-removed > k {
		newDeg = induced - removed
	}
	deg[v] = newDeg
	return newDeg != induced
}

// Degeneracy returns k_max, the largest non-empty core, from a coreness
// array.
func Degeneracy(s *parallel.Scheduler, coreness []uint32) int {
	if len(coreness) == 0 {
		return 0
	}
	return int(prims.Max(s, coreness))
}
