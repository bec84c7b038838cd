package graph

import "slices"

// Overlay is a versioned-graph snapshot: an immutable base CSR plus a
// disjoint delta CSR holding the edges inserted since the base was built.
// It implements the Graph interface by merging the two sorted adjacency
// lists on the fly, so every algorithm written against Graph runs on a
// delta-applied snapshot unchanged — traversal order (and therefore every
// deterministic algorithm's output) is exactly what a from-scratch build of
// the union edge set would produce.
//
// Invariants, established by NewDelta/MergeCSR and assumed everywhere:
// base and delta share the vertex count, weightedness and symmetry, both
// keep sorted duplicate-free adjacency, and no edge appears in both. The
// overlay is immutable: applying another batch produces a new overlay
// (merging the deltas), and compaction merges base and delta into a fresh
// CSR once the delta grows past the store's threshold.
type Overlay struct {
	base  *CSR
	delta *CSR
}

// NewOverlay wraps a base CSR and a disjoint delta CSR as one snapshot.
// The caller (ApplyEdges) guarantees the invariants above.
func NewOverlay(base, delta *CSR) *Overlay {
	return &Overlay{base: base, delta: delta}
}

// Base returns the snapshot's compacted CSR part.
func (o *Overlay) Base() *CSR { return o.base }

// Delta returns the snapshot's delta CSR (the edges inserted since Base was
// compacted).
func (o *Overlay) Delta() *CSR { return o.delta }

// DeltaM returns the number of stored directed edges in the delta part,
// which compaction policies compare against Base().M().
func (o *Overlay) DeltaM() int { return o.delta.M() }

// N returns the number of vertices.
func (o *Overlay) N() int { return o.base.n }

// M returns the number of stored directed edges (base plus delta; the two
// are disjoint by construction).
func (o *Overlay) M() int { return o.base.M() + o.delta.M() }

// Weighted reports whether edges carry weights.
func (o *Overlay) Weighted() bool { return o.base.Weighted() }

// Symmetric reports whether the graph is stored symmetrically.
func (o *Overlay) Symmetric() bool { return o.base.symmetric }

// OutDeg returns the out-degree of v.
func (o *Overlay) OutDeg(v uint32) int { return o.base.OutDeg(v) + o.delta.OutDeg(v) }

// mergeNgh iterates the union of two sorted adjacency runs in sorted order,
// calling f with each neighbor and weight until f returns false. aw/bw are
// nil for unweighted graphs (weight 1). The runs are disjoint, so no
// tie-breaking between equal IDs is needed.
func mergeNgh(an []uint32, aw []int32, bn []uint32, bw []int32, f func(u uint32, w int32) bool) {
	wa := func(i int) int32 {
		if aw == nil {
			return 1
		}
		return aw[i]
	}
	wb := func(i int) int32 {
		if bw == nil {
			return 1
		}
		return bw[i]
	}
	i, j := 0, 0
	for i < len(an) && j < len(bn) {
		if an[i] < bn[j] {
			if !f(an[i], wa(i)) {
				return
			}
			i++
		} else {
			if !f(bn[j], wb(j)) {
				return
			}
			j++
		}
	}
	for ; i < len(an); i++ {
		if !f(an[i], wa(i)) {
			return
		}
	}
	for ; j < len(bn); j++ {
		if !f(bn[j], wb(j)) {
			return
		}
	}
}

// OutNgh calls f for each out-neighbor of v in sorted adjacency order until
// f returns false.
func (o *Overlay) OutNgh(v uint32, f func(u uint32, w int32) bool) {
	mergeNgh(o.base.OutNghSlice(v), o.base.OutWeightSlice(v),
		o.delta.OutNghSlice(v), o.delta.OutWeightSlice(v), f)
}

// OutRange iterates the out-neighbors of v with merged adjacency positions
// in [lo, hi), as Graph.OutRange requires.
func (o *Overlay) OutRange(v uint32, lo, hi int, f func(u uint32, w int32) bool) {
	i := 0
	o.OutNgh(v, func(u uint32, w int32) bool {
		pos := i
		i++
		if pos < lo {
			return true
		}
		if pos >= hi {
			return false
		}
		return f(u, w)
	})
}

// DecodeOut returns the merged sorted out-neighbors of v, decoded into buf
// (grown as needed). Like compressed graphs — and unlike CSR — the result
// never aliases internal storage, so callers may feed it back in as the
// next call's buf. Callers must not otherwise modify the result.
func (o *Overlay) DecodeOut(v uint32, buf []uint32) []uint32 {
	bn := o.base.OutNghSlice(v)
	dn := o.delta.OutNghSlice(v)
	need := len(bn) + len(dn)
	if cap(buf) < need {
		buf = make([]uint32, 0, need)
	}
	buf = buf[:0]
	i, j := 0, 0
	for i < len(bn) && j < len(dn) {
		if bn[i] < dn[j] {
			buf = append(buf, bn[i])
			i++
		} else {
			buf = append(buf, dn[j])
			j++
		}
	}
	buf = append(buf, bn[i:]...)
	buf = append(buf, dn[j:]...)
	return buf
}

// Transpose returns the snapshot with edge directions reversed; symmetric
// snapshots return themselves. The view shares storage with the original.
func (o *Overlay) Transpose() Graph {
	if o.base.symmetric {
		return o
	}
	return &Overlay{base: o.base.Transposed(), delta: o.delta.Transposed()}
}

// HasEdge reports whether the directed edge (u, v) is stored in the
// snapshot (in base or delta).
func (o *Overlay) HasEdge(u, v uint32) bool {
	return o.base.HasEdge(u, v) || o.delta.HasEdge(u, v)
}

// HasEdge reports whether the directed edge (u, v) is stored, by binary
// search of u's sorted adjacency list.
func (g *CSR) HasEdge(u, v uint32) bool {
	_, found := slices.BinarySearch(g.OutNghSlice(u), v)
	return found
}

var _ Graph = (*Overlay)(nil)
