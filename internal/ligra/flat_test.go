package ligra

import (
	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/prims"
)

// edgeMapFunc is EdgeMap's signature. Tests pass EdgeMap itself or one
// traversal run past the direction heuristic, so every traversal can be
// checked against the others on the same rounds.
type edgeMapFunc func(s *parallel.Scheduler, g graph.Graph, frontier VertexSubset, update Update, cond Cond, opt Opts) VertexSubset

// edgeMapForward runs the dense-forward traversal, which takes no cond.
func edgeMapForward(s *parallel.Scheduler, g graph.Graph, frontier VertexSubset, update Update, _ Cond, opt Opts) VertexSubset {
	return edgeMapDenseForward(s, g, frontier, update, opt)
}

// edgeMapFlat runs the flat sparse traversal over the frontier's out-edges,
// whatever its size.
func edgeMapFlat(s *parallel.Scheduler, g graph.Graph, frontier VertexSubset, update Update, cond Cond, opt Opts) VertexSubset {
	if frontier.Size() == 0 {
		return Empty(g.N())
	}
	ids := frontier.Sparse(s)
	offsets, _ := outDegrees(s, g, ids)
	offsets[len(ids)] = prims.ScanInPlace(s, offsets[:len(ids)])
	return edgeMapSparse(s, g, ids, offsets, update, cond, opt)
}

// none marks an unfilled slot of the flat sparse traversal's output array.
const none = ^uint32(0)

// edgeMapSparse is the standard push direction and the reference that
// edgeMapBlocked is checked against: one output slot per incident edge,
// filled with the destination when update succeeds, then filtered. offsets
// are the frontier's degree offsets, with the degree sum last.
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
