// Package ligra implements the Ligra abstractions the paper's algorithms are
// written in (§3): vertexSubsets representing subsets of vertices with dual
// sparse/dense representations, vertexMap, and edgeMap with Ligra's
// direction optimization over three traversals. A frontier whose size plus
// degree sum is at most m/20 is sparse and pushes over its out-edges with
// the cache-friendly edgeMapBlocked from the paper's §B (Algorithm 15); the
// tests check it against a flat traversal with one output slot per edge,
// which they keep as the reference. A larger frontier is dense: with
// a Cond it pulls over in-edges, stopping early once Cond turns false; with
// a nil Cond (no destination filter) it pushes from the frontier's flags,
// Ligra's dense-forward mode, since a pull could never stop early.
//
// All traversal routines are scheduler-scoped: they take the
// *parallel.Scheduler to run on as their first argument, so concurrent
// callers (e.g. two gbbs.Engine requests) never share parallelism state.
package ligra

import (
	"repro/internal/parallel"
	"repro/internal/prims"
)

// VertexSubset is a subset of the vertices [0, n). It is stored either
// sparsely (an array of vertex IDs) or densely (a boolean per vertex);
// conversions are performed lazily by the traversal routines.
type VertexSubset struct {
	n      int
	sparse []uint32
	dense  []bool
	size   int
}

// Empty returns the empty subset over n vertices.
func Empty(n int) VertexSubset { return FromSparse(n, nil) }

// Single returns the subset {v} over n vertices.
func Single(n int, v uint32) VertexSubset {
	return VertexSubset{n: n, sparse: []uint32{v}, size: 1}
}

// FromSparse wraps a slice of distinct vertex IDs as a subset. The slice is
// retained (not copied). A nil slice is the empty subset, as Empty(n).
func FromSparse(n int, ids []uint32) VertexSubset {
	if ids == nil {
		// A nil sparse form reads as "not yet converted from dense".
		ids = []uint32{}
	}
	return VertexSubset{n: n, sparse: ids, size: len(ids)}
}

// FromDense wraps a dense boolean membership array as a subset. size < 0
// recounts membership in parallel.
func FromDense(s *parallel.Scheduler, flags []bool, size int) VertexSubset {
	if size < 0 {
		size = prims.Count(s, len(flags), func(i int) bool { return flags[i] })
	}
	return VertexSubset{n: len(flags), dense: flags, size: size}
}

// All returns the full subset over n vertices.
func All(s *parallel.Scheduler, n int) VertexSubset {
	ids := make([]uint32, n)
	s.ForRange(n, 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ids[i] = uint32(i)
		}
	})
	return FromSparse(n, ids)
}

// N returns the size of the universe the subset draws from.
func (vs *VertexSubset) N() int { return vs.n }

// Size returns the number of member vertices.
func (vs *VertexSubset) Size() int { return vs.size }

// IsDense reports whether the subset currently holds a dense representation.
func (vs *VertexSubset) IsDense() bool { return vs.dense != nil && vs.sparse == nil }

// Sparse returns the member IDs, converting from dense if needed (the result
// is cached). The order is unspecified but deterministic.
func (vs *VertexSubset) Sparse(s *parallel.Scheduler) []uint32 {
	if vs.sparse == nil {
		vs.sparse = prims.PackIndex(s, vs.n, func(i int) bool { return vs.dense[i] })
	}
	return vs.sparse
}

// Dense returns the membership flags, converting from sparse if needed (the
// result is cached).
func (vs *VertexSubset) Dense(s *parallel.Scheduler) []bool {
	if vs.dense == nil {
		vs.dense = make([]bool, vs.n)
		ids := vs.sparse
		s.ForRange(len(ids), 0, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				vs.dense[ids[i]] = true
			}
		})
	}
	return vs.dense
}

// Contains reports membership of v.
func (vs *VertexSubset) Contains(v uint32) bool {
	if vs.dense != nil {
		return vs.dense[v]
	}
	for _, u := range vs.sparse {
		if u == v {
			return true
		}
	}
	return false
}

// VertexMap applies f to every member of vs in parallel (the paper's
// vertexMap). A subset held only densely is walked over its flags, so the
// call builds no sparse form: vs is taken by value, and a form packed here
// would be dropped on return and packed again by the next caller.
func VertexMap(s *parallel.Scheduler, vs VertexSubset, f func(v uint32)) {
	if vs.IsDense() {
		flags := vs.dense
		s.ForRange(len(flags), 0, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				if flags[i] {
					f(uint32(i))
				}
			}
		})
		return
	}
	ids := vs.sparse
	s.ForRange(len(ids), 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			f(ids[i])
		}
	})
}
