package ligra

import (
	"slices"
	"testing"
)

func TestSparseConversionIsCached(t *testing.T) {
	flags := make([]bool, 8)
	flags[3], flags[6] = true, true
	s := FromDense(sched, flags, 2)
	a := s.Sparse(sched)
	b := s.Sparse(sched)
	if &a[0] != &b[0] {
		t.Fatal("Sparse() not cached")
	}
}

func TestDenseConversionIsCached(t *testing.T) {
	s := FromSparse(8, []uint32{1, 2})
	a := s.Dense(sched)
	b := s.Dense(sched)
	if &a[0] != &b[0] {
		t.Fatal("Dense() not cached")
	}
}

func TestContainsBothRepresentations(t *testing.T) {
	s := FromSparse(10, []uint32{4, 7})
	if !s.Contains(4) || !s.Contains(7) || s.Contains(5) {
		t.Fatal("sparse Contains wrong")
	}
	_ = s.Dense(sched)
	if !s.Contains(4) || s.Contains(5) {
		t.Fatal("dense Contains wrong")
	}
}

func TestVertexFilterPreservesUniverse(t *testing.T) {
	s := All(sched, 20)
	f := VertexFilter(sched, s, func(v uint32) bool { return v >= 15 })
	if f.N() != 20 || f.Size() != 5 {
		t.Fatalf("N=%d Size=%d", f.N(), f.Size())
	}
	got := slices.Clone(f.Sparse(sched))
	slices.Sort(got)
	if !slices.Equal(got, []uint32{15, 16, 17, 18, 19}) {
		t.Fatalf("filtered = %v", got)
	}
}

func TestFromDenseZeroSize(t *testing.T) {
	s := FromDense(sched, make([]bool, 5), -1)
	if !s.IsEmpty() || s.Size() != 0 {
		t.Fatal("all-false dense subset not empty")
	}
	if len(s.Sparse(sched)) != 0 {
		t.Fatal("sparse of empty dense not empty")
	}
}
