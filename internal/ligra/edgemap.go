package ligra

import (
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/prims"
)

// Update is edgeMap's F: applied to edge (s, d) with weight w; returning true
// adds d to the output subset. When the sparse direction is used, Update may
// be invoked concurrently for the same destination, so implementations must
// both side-effect atomically and guarantee that at most one invocation per
// destination returns true (all of the paper's algorithms do this with a
// test-and-set on a per-vertex flag).
type Update func(s, d uint32, w int32) bool

// Cond is edgeMap's C: destinations with Cond(d) == false are skipped, and
// the dense direction stops examining d's in-edges once Cond(d) turns false
// (the paper's sequential early-exit dense optimization).
type Cond func(d uint32) bool

// Opts tunes an EdgeMap call.
type Opts struct {
	// DenseThreshold is the denominator of Ligra's direction heuristic: use
	// the dense direction when |U| + sum of out-degrees > m/DenseThreshold.
	// 0 means the Ligra default of 20.
	DenseThreshold int
	// NoDense forces the sparse direction (used to exercise or measure the
	// sparse traversals in isolation).
	NoDense bool
	// NoBlocked uses the flat sparse traversal (one output slot per edge)
	// instead of edgeMapBlocked. The flat path is the simple reference the
	// tests check edgeMapBlocked against.
	NoBlocked bool
	// NoOutput skips building the output subset; EdgeMap returns Empty.
	NoOutput bool
}

// none marks an unfilled slot of the flat sparse traversal's output array.
const none = ^uint32(0)

// Traffic tallies the words written by the sparse traversals, the memory
// stream edgeMapBlocked shrinks relative to the flat traversal (the
// paper's Table 6 proxy). It is only approximate (allocation and filter
// passes are excluded) but both variants are counted the same way.
var Traffic atomic.Int64

// EdgeMap is Ligra's edgeMap (§3): it applies update to every edge (u, v)
// with u in frontier and cond(v) true, and returns the subset of
// destinations for which update returned true. The direction (sparse push
// vs. dense pull over in-edges) is chosen by frontier size as in Ligra.
func EdgeMap(s *parallel.Scheduler, g graph.Graph, frontier VertexSubset, update Update, cond Cond, opt Opts) VertexSubset {
	n := g.N()
	if frontier.Size() == 0 {
		return Empty(n)
	}
	threshold := opt.DenseThreshold
	if threshold <= 0 {
		threshold = 20
	}
	// The direction heuristic needs the frontier's degree sum, not its
	// member list: when the frontier is already dense, summing over the
	// flags avoids materializing the sparse form (a pack allocating and
	// compacting O(n) words) that the dense direction would then never
	// read. The sparse ids are produced only once the sparse direction is
	// actually chosen.
	var ids []uint32
	var degSum int
	if frontier.IsDense() {
		flags := frontier.Dense(s)
		degSum = prims.MapReduce(s, n, 0,
			func(i int) int {
				if flags[i] {
					return g.OutDeg(uint32(i))
				}
				return 0
			},
			func(a, b int) int { return a + b })
	} else {
		ids = frontier.Sparse(s)
		degSum = prims.MapReduce(s, len(ids), 0,
			func(i int) int { return g.OutDeg(ids[i]) },
			func(a, b int) int { return a + b })
	}
	if !opt.NoDense && frontier.Size()+degSum > g.M()/threshold {
		return edgeMapDense(s, g, frontier, update, cond, opt)
	}
	if ids == nil {
		ids = frontier.Sparse(s)
	}
	if opt.NoBlocked {
		return edgeMapSparse(s, g, ids, degSum, update, cond, opt)
	}
	return edgeMapBlocked(s, g, ids, degSum, update, cond, opt)
}

// edgeMapDense is the pull direction: every vertex with cond(v) scans its
// in-edges sequentially, applying update for in-neighbors on the frontier,
// and stops early once cond(v) becomes false. O(sum in-degrees examined)
// work; depth O(max in-degree) for the early-exit variant, as the paper
// notes.
func edgeMapDense(s *parallel.Scheduler, g graph.Graph, frontier VertexSubset, update Update, cond Cond, opt Opts) VertexSubset {
	n := g.N()
	inFlags := frontier.Dense(s)
	var outFlags []bool
	if !opt.NoOutput {
		outFlags = make([]bool, n)
	}
	var added atomic.Int64
	s.ForRange(n, 256, func(lo, hi int) {
		local := int64(0)
		for v := lo; v < hi; v++ {
			d := uint32(v)
			if !cond(d) {
				continue
			}
			g.InNgh(d, func(u uint32, w int32) bool {
				if inFlags[u] && update(u, d, w) {
					if outFlags != nil && !outFlags[d] {
						outFlags[d] = true
						local++
					}
				}
				return cond(d)
			})
		}
		added.Add(local)
	})
	if opt.NoOutput {
		return Empty(n)
	}
	return FromDense(s, outFlags, int(added.Load()))
}

// edgeMapSparse is the standard push direction: one output slot per incident
// edge, filled with the destination when update succeeds, then filtered.
func edgeMapSparse(s *parallel.Scheduler, g graph.Graph, ids []uint32, degSum int, update Update, cond Cond, opt Opts) VertexSubset {
	n := g.N()
	offsets := make([]int64, len(ids))
	prims.Scan(s, degreesOf(s, g, ids), offsets)
	out := make([]uint32, degSum)
	s.For(len(ids), 32, func(i int) {
		u := ids[i]
		o := offsets[i]
		written := int64(0)
		g.OutNgh(u, func(v uint32, w int32) bool {
			if cond(v) && update(u, v, w) {
				out[o] = v
			} else {
				out[o] = none
			}
			o++
			written++
			return true
		})
		Traffic.Add(written)
	})
	if opt.NoOutput {
		return Empty(n)
	}
	kept := prims.Filter(s, out, func(v uint32) bool { return v != none })
	return FromSparse(n, kept)
}

// edgeMapBlocked is Algorithm 15: the edges incident to the frontier are
// split into fixed-size logical blocks; each block packs its live
// destinations compactly, so the number of words written is proportional to
// the output size rather than to the frontier's degree sum.
const emBlockSize = 4096

func edgeMapBlocked(s *parallel.Scheduler, g graph.Graph, ids []uint32, degSum int, update Update, cond Cond, opt Opts) VertexSubset {
	n := g.N()
	if degSum == 0 {
		return Empty(n)
	}
	degs := degreesOf(s, g, ids)
	offsets := make([]int64, len(ids))
	prims.Scan(s, degs, offsets)
	nblocks := (degSum + emBlockSize - 1) / emBlockSize
	// B[b] = index of the frontier vertex containing edge b*emBlockSize.
	starts := make([]int, nblocks)
	s.For(nblocks, 64, func(b int) {
		starts[b] = prims.SearchSorted64(offsets, int64(b*emBlockSize)+1) - 1
	})
	inter := make([]uint32, degSum)
	counts := make([]int, nblocks)
	s.For(nblocks, 1, func(b int) {
		edgeLo := b * emBlockSize
		edgeHi := edgeLo + emBlockSize
		if edgeHi > degSum {
			edgeHi = degSum
		}
		o := edgeLo
		for i := starts[b]; i < len(ids) && int(offsets[i]) < edgeHi; i++ {
			u := ids[i]
			vLo := edgeLo - int(offsets[i])
			if vLo < 0 {
				vLo = 0
			}
			vHi := edgeHi - int(offsets[i])
			if d := int(degs[i]); vHi > d {
				vHi = d
			}
			g.OutRange(u, vLo, vHi, func(v uint32, w int32) bool {
				if cond(v) && update(u, v, w) {
					inter[o] = v
					o++
				}
				return true
			})
		}
		counts[b] = o - edgeLo
		Traffic.Add(int64(counts[b]))
	})
	if opt.NoOutput {
		return Empty(n)
	}
	blockOff := make([]int, nblocks)
	total := prims.Scan(s, counts, blockOff)
	result := make([]uint32, total)
	s.For(nblocks, 64, func(b int) {
		copy(result[blockOff[b]:blockOff[b]+counts[b]], inter[b*emBlockSize:b*emBlockSize+counts[b]])
	})
	return FromSparse(n, result)
}

func degreesOf(s *parallel.Scheduler, g graph.Graph, ids []uint32) []int64 {
	degs := make([]int64, len(ids))
	s.ForRange(len(ids), 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			degs[i] = int64(g.OutDeg(ids[i]))
		}
	})
	return degs
}
