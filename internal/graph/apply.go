package graph

import (
	"repro/internal/parallel"
	"repro/internal/prims"
)

// This file implements batch edge insertion for versioned graph snapshots:
// NewDelta filters a batch down to the genuinely new edges and lays them
// out as a small CSR, and MergeCSR merges two disjoint CSRs into a fresh
// one (compaction). Both are deterministic at any thread count, and a
// compacted snapshot is byte-identical to FromEdgeList run on the union
// edge set — the property the update path's tests pin down.

// EdgeLookup is implemented by snapshot representations that can answer
// directed-edge membership queries (CSR and Overlay).
type EdgeLookup interface {
	// HasEdge reports whether the directed edge (u, v) is stored.
	HasEdge(u, v uint32) bool
}

// NewDelta builds the delta CSR that inserting el into g produces: the
// batch minus self-loops, intra-batch duplicates and edges already present
// in g, laid out with g's shape — symmetrized for symmetric bases (so one
// undirected insertion stores both directions), with the transpose built
// for directed ones. Inserting an edge that already exists is a no-op, so
// applying the same batch twice yields an empty delta. The caller
// guarantees endpoints are in range and el's weightedness matches g's.
//
// Work is O(b log b + b log d_max) for a b-edge batch (sorting the batch
// dominates; membership tests binary-search the base adjacency) —
// independent of g's edge count, which is what makes high-velocity update
// streams affordable.
func NewDelta(s *parallel.Scheduler, g Graph, el *EdgeList) *CSR {
	lookup := g.(EdgeLookup)
	symmetric := g.Symmetric()
	kept := prims.PackIndex(s, el.Len(), func(i int) bool {
		u, v := el.U[i], el.V[i]
		if u == v {
			return false
		}
		if lookup.HasEdge(u, v) {
			return false
		}
		// For symmetric graphs both directions are stored together, so one
		// membership test covers the undirected edge.
		return true
	})
	filtered := &EdgeList{N: g.N()}
	filtered.U = make([]uint32, len(kept))
	filtered.V = make([]uint32, len(kept))
	if el.Weighted() {
		filtered.W = make([]int32, len(kept))
	}
	s.ForRange(len(kept), 0, func(lo, hi int) {
		for j := lo; j < hi; j++ {
			i := int(kept[j])
			filtered.U[j] = el.U[i]
			filtered.V[j] = el.V[i]
			if filtered.W != nil {
				filtered.W[j] = el.W[i]
			}
		}
	})
	s.Poll()
	return FromEdgeList(s, g.N(), filtered, BuildOptions{Symmetrize: symmetric})
}

// ApplyEdges returns the snapshot of g with the edges of el inserted, plus
// the number of directed edges actually added (0 means g is returned
// unchanged). A CSR base yields an Overlay; an Overlay base yields a new
// Overlay whose delta is the merge of the old delta and the new edges, so
// overlays never chain. See NewDelta for the insertion semantics.
func ApplyEdges(s *parallel.Scheduler, g Graph, el *EdgeList) (Graph, int) {
	delta := NewDelta(s, g, el)
	if delta.M() == 0 {
		return g, 0
	}
	s.Poll()
	switch base := g.(type) {
	case *Overlay:
		return NewOverlay(base.base, MergeCSR(s, base.delta, delta)), delta.M()
	case *CSR:
		return NewOverlay(base, delta), delta.M()
	default:
		// Unreachable from the public API: Engine.ApplyEdges rejects
		// representations without edge lookup before calling here.
		panic("graph: ApplyEdges on unsupported representation")
	}
}

// Compact merges the overlay into a fresh CSR, byte-identical to building
// the union edge set from scratch. Runs in O(n + m) work.
func (o *Overlay) Compact(s *parallel.Scheduler) *CSR { return MergeCSR(s, o.base, o.delta) }

// MergeCSR merges two CSRs over the same vertex set, with the same
// weightedness and symmetry and disjoint edge sets, into one fresh CSR with
// sorted adjacency. Because the inputs are disjoint and sorted, the output
// is exactly what FromEdgeList would build from the concatenated edge
// lists: offsets are the sums of the inputs' offsets and each vertex's
// adjacency is a two-way merge. The transposes merge the same way; an
// out-only a (a SplitCSR shard under an overlay) merges to an out-only CSR.
func MergeCSR(s *parallel.Scheduler, a, b *CSR) *CSR {
	g := mergeAdj(s, a, b)
	if a.t != nil {
		s.Poll()
		t := mergeAdj(s, a.t, b.t)
		g.t, t.t = t, g
	}
	return g
}

// mergeAdj merges one adjacency direction of two disjoint CSRs into a fresh
// CSR with no transpose linked.
func mergeAdj(s *parallel.Scheduler, a, b *CSR) *CSR {
	n, aOff, bOff := a.n, a.offsets, b.offsets
	offsets := make([]int64, n+1)
	s.ForRange(n+1, 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			offsets[i] = aOff[i] + bOff[i]
		}
	})
	edges := make([]uint32, len(a.edges)+len(b.edges))
	var weights []int32
	if a.weights != nil {
		weights = make([]int32, len(edges))
	}
	aW, bW := a.weights, b.weights
	s.Poll()
	s.For(n, 64, func(v int) {
		an, bn := a.edges[aOff[v]:aOff[v+1]], b.edges[bOff[v]:bOff[v+1]]
		out := offsets[v]
		i, j := 0, 0
		for i < len(an) && j < len(bn) {
			if an[i] < bn[j] {
				edges[out] = an[i]
				if weights != nil {
					weights[out] = aW[aOff[v]+int64(i)]
				}
				i++
			} else {
				edges[out] = bn[j]
				if weights != nil {
					weights[out] = bW[bOff[v]+int64(j)]
				}
				j++
			}
			out++
		}
		for ; i < len(an); i++ {
			edges[out] = an[i]
			if weights != nil {
				weights[out] = aW[aOff[v]+int64(i)]
			}
			out++
		}
		for ; j < len(bn); j++ {
			edges[out] = bn[j]
			if weights != nil {
				weights[out] = bW[bOff[v]+int64(j)]
			}
			out++
		}
	})
	return &CSR{n: n, offsets: offsets, edges: edges, weights: weights, symmetric: a.symmetric}
}
