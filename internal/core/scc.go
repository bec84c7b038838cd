package core

import (
	"sync/atomic"

	"repro/internal/atomics"
	"repro/internal/graph"
	"repro/internal/hashtable"
	"repro/internal/ligra"
	"repro/internal/parallel"
	"repro/internal/prims"
)

// SCCOpts tunes SCC; zero values select the paper's defaults.
type SCCOpts struct {
	// Beta is the exponential growth rate of the per-phase center batch
	// size; the paper uses values in [1.1, 2.0]. 0 selects 2.0.
	Beta float64
	// TrimRounds bounds the zero-degree trimming iterations (the paper's
	// optimization); 0 selects 3; negative disables trimming.
	TrimRounds int
}

// SCC computes strongly connected components (Algorithm 8, the randomized
// batched-reachability algorithm of Blelloch et al.) in O(m log n) expected
// work and O(diam(G) log n) depth w.h.p. on the PW-MT-RAM. Vertices are
// processed in a random permutation, in batches growing exponentially;
// each phase runs simultaneous forward and backward BFS from the batch's
// centers, storing (vertex, center) reachability pairs in hash tables keyed
// by vertex (§5, "Techniques for overlapping searches"). Vertices reached in
// both directions are captured into the center's SCC; vertices reached in
// one direction move to a refined subproblem.
//
// Returns a label per vertex; two vertices get equal labels iff they are in
// the same SCC. g must be directed with in-edges available.
func SCC(s *parallel.Scheduler, g graph.Graph, seed uint64, opt SCCOpts) []uint32 {
	n := g.N()
	if opt.Beta <= 1 {
		opt.Beta = 2.0
	}
	if opt.TrimRounds == 0 {
		opt.TrimRounds = 3
	}
	labels := make([]uint32, n)
	sub := make([]uint32, n) // subproblem of each vertex
	done := make([]uint32, (n+31)/32)
	s.ForRange(n, 0, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			labels[v] = Inf
		}
	})
	perm := prims.RandomPermutation(s, n, seed)
	gt := g.Transpose()

	trim(s, g, labels, done, opt.TrimRounds)

	// First-phase optimization: two plain BFSs from a single pivot using
	// bit-vectors instead of hash tables (the giant-SCC heuristic).
	pivotIdx := 0
	for pivotIdx < n && atomics.Bit(done, int(perm[pivotIdx])) {
		pivotIdx++
	}
	if pivotIdx < n {
		pivot := perm[pivotIdx]
		reachF := reachBits(s, g, pivot, done, sub)
		reachB := reachBits(s, gt, pivot, done, sub)
		rank := uint32(pivotIdx)
		s.ForRange(n, 0, func(lo, hi int) {
			for v := lo; v < hi; v++ {
				if atomics.Bit(done, v) {
					continue
				}
				f, b := atomics.Bit(reachF, v), atomics.Bit(reachB, v)
				switch {
				case f && b:
					labels[v] = rank
					atomics.TestAndSetBit(done, v)
				case f:
					sub[v] = 2*rank + 0 + 2
				case b:
					sub[v] = 2*rank + 1 + 2
				}
			}
		})
	}

	// Batched phases over the remaining permutation.
	newSub := make([]uint32, n)
	s.ForRange(n, 0, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			newSub[v] = Inf
		}
	})
	offset := pivotIdx + 1
	batch := 2.0
	for offset < n {
		s.Poll()
		size := int(batch)
		if offset+size > n {
			size = n - offset
		}
		batch *= opt.Beta
		centers := prims.MapFilter(s, size,
			func(i int) bool { return !atomics.Bit(done, int(perm[offset+i])) },
			func(i int) uint32 { return uint32(offset + i) }) // center ranks
		offset += size
		if len(centers) == 0 {
			continue
		}
		tF, visF := markReachable(s, g, perm, centers, sub, done)
		tB, visB := markReachable(s, gt, perm, centers, sub, done)
		// Vertices touched by either search.
		touched := prims.PackIndex(s, n, func(v int) bool {
			return atomics.Bit(visF, v) || atomics.Bit(visB, v)
		})
		s.ForRange(len(touched), 64, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				v := touched[i]
				captured := false
				tF.ForEachOf(v, func(cr uint32) bool {
					if tB.Contains(v, cr) {
						captured = true
						atomics.WriteMin32(&labels[v], cr)
					}
					return true
				})
				if captured {
					atomics.TestAndSetBit(done, int(v))
					continue
				}
				// Refine the subproblem by the symmetric difference.
				tF.ForEachOf(v, func(cr uint32) bool {
					atomics.WriteMin32(&newSub[v], 2*cr)
					return true
				})
				tB.ForEachOf(v, func(cr uint32) bool {
					atomics.WriteMin32(&newSub[v], 2*cr+1)
					return true
				})
			}
		})
		s.ForRange(len(touched), 0, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				v := touched[i]
				if newSub[v] != Inf {
					sub[v] = newSub[v] + 2
					newSub[v] = Inf
				}
			}
		})
	}
	return labels
}

// trim repeatedly removes vertices with zero active in- or out-degree; each
// forms a singleton SCC labeled n+v (distinct from all center ranks).
func trim(s *parallel.Scheduler, g graph.Graph, labels []uint32, done []uint32, rounds int) {
	n := g.N()
	drop := make([]bool, n)
	for r := 0; r < rounds; r++ {
		s.ForRange(n, 0, func(lo, hi int) {
			var v uint32
			var found bool
			active := func(u uint32, _ int32) bool {
				if !atomics.Bit(done, int(u)) && u != v {
					found = true
					return false
				}
				return true
			}
			for i := lo; i < hi; i++ {
				if atomics.Bit(done, i) {
					drop[i] = false
					continue
				}
				v, found = uint32(i), false
				g.OutNgh(v, active)
				if found {
					found = false
					g.InNgh(v, active)
				}
				drop[i] = !found
			}
		})
		trimmed := prims.PackIndex(s, n, func(v int) bool { return drop[v] })
		if len(trimmed) == 0 {
			return
		}
		s.ForRange(len(trimmed), 0, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				v := trimmed[i]
				labels[v] = uint32(n) + v
				atomics.TestAndSetBit(done, int(v))
			}
		})
	}
}

// reachBits marks all active vertices reachable from src (restricted to
// src's subproblem) in a bitset, via a plain frontier BFS.
func reachBits(s *parallel.Scheduler, g graph.Graph, src uint32, done []uint32, sub []uint32) []uint32 {
	n := g.N()
	bits := make([]uint32, (n+31)/32)
	atomics.TestAndSetBit(bits, int(src))
	mySub := sub[src]
	frontier := ligra.Single(n, src)
	for frontier.Size() > 0 {
		s.Poll()
		frontier = ligra.EdgeMap(s, g, frontier,
			func(s, d uint32, _ int32) bool {
				return atomics.TestAndSetBit(bits, int(d))
			},
			func(d uint32) bool {
				return !atomics.Bit(done, int(d)) && sub[d] == mySub && !atomics.Bit(bits, int(d))
			},
			ligra.Opts{})
	}
	return bits
}

// markReachable runs the multi-source BFS of a phase: every center (given by
// permutation rank) spreads its rank to all vertices it reaches inside its
// subproblem, recording (vertex, rank) pairs in a hash table. Returns the
// table and the bitset of vertices visited.
func markReachable(s *parallel.Scheduler, g graph.Graph, perm []uint32, centerRanks []uint32, sub []uint32, done []uint32) (*hashtable.Table, []uint32) {
	n := g.N()
	table := hashtable.New(s, 4*len(centerRanks))
	visited := make([]uint32, (n+31)/32)
	roundFlag := make([]uint32, n)
	// Map center rank -> subproblem (the ranks of one phase span a small
	// contiguous window of the permutation).
	base := centerRanks[0]
	last := centerRanks[len(centerRanks)-1]
	subOf := make([]uint32, last-base+1)
	for i := range subOf {
		subOf[i] = Inf
	}
	frontier := make([]uint32, 0, len(centerRanks))
	for _, cr := range centerRanks {
		c := perm[cr]
		subOf[cr-base] = sub[c]
		table.Insert(c, cr)
		atomics.TestAndSetBit(visited, int(c))
		frontier = append(frontier, c)
	}
	for len(frontier) > 0 {
		s.Poll()
		// Upper-bound this round's insertions: Σ deg(u)·labels(u).
		bound := prims.MapReduce(s, len(frontier), 0, func(i int) int {
			u := frontier[i]
			return g.OutDeg(u) * table.CountOf(u)
		}, func(a, b int) int { return a + b })
		table.Reserve(bound)
		next := make([]uint32, bound)
		var cnt atomic.Int64
		s.ForRange(len(frontier), 16, func(lo, hi int) {
			var labs [16]uint32
			labels := labs[:0]
			collect := func(cr uint32) bool {
				labels = append(labels, cr)
				return true
			}
			visit := func(v uint32, _ int32) bool {
				if atomics.Bit(done, int(v)) {
					return true
				}
				added := false
				for _, cr := range labels {
					if sub[v] != subOf[cr-base] {
						continue
					}
					if table.Insert(v, cr) {
						added = true
					}
				}
				if added {
					atomics.TestAndSetBit(visited, int(v))
					if atomics.TestAndSet(&roundFlag[v]) {
						next[cnt.Add(1)-1] = v
					}
				}
				return true
			}
			for i := lo; i < hi; i++ {
				u := frontier[i]
				labels = labels[:0]
				table.ForEachOf(u, collect)
				g.OutNgh(u, visit)
			}
		})
		frontier = next[:cnt.Load()]
		s.ForRange(len(frontier), 0, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				atomics.Store32(&roundFlag[frontier[i]], 0)
			}
		})
	}
	return table, visited
}

// NumSCCs returns the number of distinct SCC labels and the largest class
// size (for Tables 3, 8-13).
func NumSCCs(s *parallel.Scheduler, labels []uint32) (int, int) {
	return ComponentCount(s, labels)
}
