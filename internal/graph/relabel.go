package graph

import (
	"repro/internal/parallel"
	"repro/internal/prims"
)

// CopyEdgeList returns a deep copy of el on scheduler s, so build pipelines
// can mutate (reweight, relabel) without touching a caller-owned list.
func CopyEdgeList(s *parallel.Scheduler, el *EdgeList) *EdgeList {
	m := el.Len()
	cp := &EdgeList{N: el.N}
	cp.U = make([]uint32, m)
	cp.V = make([]uint32, m)
	if el.W != nil {
		cp.W = make([]int32, m)
	}
	s.ForRange(m, 0, func(lo, hi int) {
		copy(cp.U[lo:hi], el.U[lo:hi])
		copy(cp.V[lo:hi], el.V[lo:hi])
		if cp.W != nil {
			copy(cp.W[lo:hi], el.W[lo:hi])
		}
	})
	return cp
}

// RelabelEdgeList renames both endpoint columns of el through perm (old ID
// -> new ID) in place, in parallel on s.
func RelabelEdgeList(s *parallel.Scheduler, el *EdgeList, perm []uint32) {
	s.ForRange(el.Len(), 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			el.U[i] = perm[el.U[i]]
			el.V[i] = perm[el.V[i]]
		}
	})
}

// DegreePerm returns the decreasing-out-degree permutation of g (old ID ->
// new ID), ties broken by original ID — the relabelling that concentrates
// high-degree vertices at small IDs, shrinking compressed gap encodings.
func DegreePerm(s *parallel.Scheduler, g *CSR) []uint32 {
	n := g.n
	keys := make([]uint64, n)
	s.ForRange(n, 0, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			// ^deg sorts ascending as degree descending; the low word keeps
			// the sort stable on original IDs.
			keys[v] = uint64(^uint32(g.OutDeg(uint32(v))))<<32 | uint64(uint32(v))
		}
	})
	prims.RadixSortU64(s, keys, 64)
	perm := make([]uint32, n)
	s.ForRange(n, 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			perm[uint32(keys[i])] = uint32(i)
		}
	})
	return perm
}
