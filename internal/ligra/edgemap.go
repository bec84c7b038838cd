package ligra

import (
	"slices"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/prims"
)

// Update is edgeMap's F: applied to edge (s, d) with weight w; returning true
// adds d to the output subset. When the sparse direction, or the dense
// direction of a call with a nil Cond, is used, Update may be invoked
// concurrently for the same destination, so implementations must both
// side-effect atomically and guarantee that at most one invocation per
// destination returns true (all of the paper's algorithms do this with a
// test-and-set on a per-vertex flag).
type Update func(s, d uint32, w int32) bool

// Cond is edgeMap's C: destinations with Cond(d) == false are skipped, and
// the dense pull stops examining d's in-edges once Cond(d) turns false
// (the paper's sequential early-exit dense optimization). A nil Cond means
// no destination filter: every edge out of the frontier is applied, and
// the dense direction pushes over the frontier's out-edges instead of
// pulling over every vertex's in-edges, which could never stop early.
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
// with u in frontier and cond(v) true (every edge if cond is nil), and
// returns the subset of destinations for which update returned true. The
// direction is chosen by frontier size as in Ligra: a small frontier
// pushes over its out-edges (sparse), a large one goes dense, which pulls
// over in-edges when cond is set and pushes from the dense frontier's
// flags when cond is nil.
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
	// read. A sparse frontier's degrees are read once: the pass that sums
	// them also stores them, and only the sparse direction goes on to scan
	// them into the offsets both sparse traversals index by.
	var ids []uint32
	var offsets []int
	var degSum int
	if frontier.IsDense() {
		degSum = denseOutDegrees(s, g, frontier.Dense(s))
	} else {
		ids = frontier.Sparse(s)
		offsets, degSum = outDegrees(s, g, ids)
	}
	if !opt.NoDense && frontier.Size()+degSum > g.M()/threshold {
		if cond == nil {
			return edgeMapDenseForward(s, g, frontier, update, opt)
		}
		return edgeMapDense(s, g, frontier, update, cond, opt)
	}
	if ids == nil {
		ids = frontier.Sparse(s)
		offsets, _ = outDegrees(s, g, ids)
	}
	// Vertex i's edges are [offsets[i], offsets[i+1]); a vertex's degree is
	// the difference of adjacent offsets.
	offsets[len(ids)] = prims.ScanInPlace(s, offsets[:len(ids)])
	if opt.NoBlocked {
		return edgeMapSparse(s, g, ids, offsets, update, cond, opt)
	}
	return edgeMapBlocked(s, g, ids, offsets, update, cond, opt)
}

// outDegrees returns the out-degrees of ids, in a slice with one spare slot
// at the end for the sum once the caller scans it into offsets, and their
// sum.
func outDegrees(s *parallel.Scheduler, g graph.Graph, ids []uint32) ([]int, int) {
	degs := make([]int, len(ids)+1)
	sum := prims.MapReduce(s, len(ids), 0,
		func(i int) int {
			d := g.OutDeg(ids[i])
			degs[i] = d
			return d
		},
		func(a, b int) int { return a + b })
	return degs, sum
}

// denseOutDegrees returns the degree sum of the members of a dense frontier,
// one block loop over the flags.
func denseOutDegrees(s *parallel.Scheduler, g graph.Graph, flags []bool) int {
	var sum atomic.Int64
	s.ForRange(len(flags), 0, func(lo, hi int) {
		local := 0
		for i := lo; i < hi; i++ {
			if flags[i] {
				local += g.OutDeg(uint32(i))
			}
		}
		sum.Add(int64(local))
	})
	return int(sum.Load())
}

// edgeMapDense is the pull direction: every vertex with cond(v) scans its
// in-edges (its out-edges in g's transpose) sequentially, applying update
// for in-neighbors on the frontier, and stops early once cond(v) becomes
// false. O(sum in-degrees examined) work; depth O(max in-degree) for the
// early-exit variant, as the paper notes.
func edgeMapDense(s *parallel.Scheduler, g graph.Graph, frontier VertexSubset, update Update, cond Cond, opt Opts) VertexSubset {
	n := g.N()
	gt := g.Transpose()
	inFlags := frontier.Dense(s)
	var outFlags []bool
	if !opt.NoOutput {
		outFlags = make([]bool, n)
	}
	var added atomic.Int64
	s.ForRange(n, 256, func(lo, hi int) {
		// One visit closure per block: a closure built per vertex escapes
		// through the interface call and costs one allocation each.
		local := int64(0)
		var d uint32
		visit := func(u uint32, w int32) bool {
			if inFlags[u] && update(u, d, w) {
				if outFlags != nil && !outFlags[d] {
					outFlags[d] = true
					local++
				}
			}
			return cond(d)
		}
		for v := lo; v < hi; v++ {
			d = uint32(v)
			if !cond(d) {
				continue
			}
			gt.OutNgh(d, visit)
		}
		added.Add(local)
	})
	if opt.NoOutput {
		return Empty(n)
	}
	return FromDense(s, outFlags, int(added.Load()))
}

// edgeMapDenseForward is Ligra's dense-forward direction, taken for a dense
// frontier when the call has no destination filter: every member applies
// update over its out-edges, as the sparse push does, but the members come
// from the frontier's flags and the output is dense. It reads the n flags
// plus the frontier's degree sum, where the pull would read all m in-edges
// with no chance of stopping early. Update runs concurrently for one
// destination, so its at-most-once contract keeps the output flags exact.
func edgeMapDenseForward(s *parallel.Scheduler, g graph.Graph, frontier VertexSubset, update Update, opt Opts) VertexSubset {
	n := g.N()
	inFlags := frontier.Dense(s)
	var outFlags []bool
	if !opt.NoOutput {
		outFlags = make([]bool, n)
	}
	var added atomic.Int64
	s.ForRange(n, 0, func(lo, hi int) {
		local := int64(0)
		var u uint32
		visit := func(v uint32, w int32) bool {
			if update(u, v, w) && outFlags != nil {
				outFlags[v] = true
				local++
			}
			return true
		}
		for i := lo; i < hi; i++ {
			if inFlags[i] {
				u = uint32(i)
				g.OutNgh(u, visit)
			}
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
// offsets are the frontier's degree offsets, with the degree sum last.
func edgeMapSparse(s *parallel.Scheduler, g graph.Graph, ids []uint32, offsets []int, update Update, cond Cond, opt Opts) VertexSubset {
	n := g.N()
	out := make([]uint32, offsets[len(ids)])
	s.ForRange(len(ids), 32, func(lo, hi int) {
		var u uint32
		var o int
		visit := func(v uint32, w int32) bool {
			if (cond == nil || cond(v)) && update(u, v, w) {
				out[o] = v
			} else {
				out[o] = none
			}
			o++
			return true
		}
		for i := lo; i < hi; i++ {
			u, o = ids[i], offsets[i]
			g.OutNgh(u, visit)
		}
		Traffic.Add(int64(offsets[hi] - offsets[lo]))
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
// the output size rather than to the frontier's degree sum. offsets are the
// frontier's degree offsets, with the degree sum last.
const emBlockSize = 4096

func edgeMapBlocked(s *parallel.Scheduler, g graph.Graph, ids []uint32, offsets []int, update Update, cond Cond, opt Opts) VertexSubset {
	n := g.N()
	degSum := offsets[len(ids)]
	if degSum == 0 {
		return Empty(n)
	}
	nblocks := (degSum + emBlockSize - 1) / emBlockSize
	inter := make([]uint32, degSum)
	// counts[b] is block b's live destinations, then its output offset.
	counts := make([]int, nblocks+1)
	s.For(nblocks, 1, func(b int) {
		edgeLo := b * emBlockSize
		edgeHi := min(edgeLo+emBlockSize, degSum)
		// The frontier vertex holding edge edgeLo: the last one whose
		// offset is at most edgeLo.
		first, _ := slices.BinarySearch(offsets, edgeLo+1)
		o := edgeLo
		var u uint32
		visit := func(v uint32, w int32) bool {
			if (cond == nil || cond(v)) && update(u, v, w) {
				inter[o] = v
				o++
			}
			return true
		}
		for i := first - 1; offsets[i] < edgeHi; i++ {
			u = ids[i]
			vLo := max(edgeLo, offsets[i]) - offsets[i]
			vHi := min(edgeHi, offsets[i+1]) - offsets[i]
			g.OutRange(u, vLo, vHi, visit)
		}
		counts[b] = o - edgeLo
		Traffic.Add(int64(counts[b]))
	})
	if opt.NoOutput {
		return Empty(n)
	}
	counts[nblocks] = prims.ScanInPlace(s, counts[:nblocks])
	result := make([]uint32, counts[nblocks])
	s.For(nblocks, 64, func(b int) {
		copy(result[counts[b]:counts[b+1]], inter[b*emBlockSize:])
	})
	return FromSparse(n, result)
}
