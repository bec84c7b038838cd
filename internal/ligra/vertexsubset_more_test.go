package ligra

import (
	"runtime"
	"slices"
	"testing"

	"repro/internal/atomics"
	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/prims"
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

// TestVertexFilterPreservesUniverse filters a dense subset the way callers
// do (prims.Filter over its members, rewrapped with FromSparse) and checks
// the result keeps the original universe.
func TestVertexFilterPreservesUniverse(t *testing.T) {
	s := All(sched, 20)
	f := FromSparse(s.N(), prims.Filter(sched, s.Sparse(sched), func(v uint32) bool { return v >= 15 }))
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
	if s.Size() != 0 {
		t.Fatal("all-false dense subset not empty")
	}
	if len(s.Sparse(sched)) != 0 {
		t.Fatal("sparse of empty dense not empty")
	}
}

// TestFromSparseNilIsEmpty: a nil member list is the empty subset. The flat
// sparse traversal from a frontier with no out-edges filters an empty slot
// array, gets nil back, and wraps it with FromSparse; reading that result
// must not mistake it for a subset still waiting for its dense-to-sparse
// conversion.
func TestFromSparseNilIsEmpty(t *testing.T) {
	s := FromSparse(5, nil)
	if s.Size() != 0 || len(s.Sparse(sched)) != 0 || s.Contains(0) {
		t.Fatal("FromSparse(n, nil) is not the empty subset")
	}
	// Vertices 1 and 2 are isolated.
	g := graph.FromEdgeList(sched, 4, &graph.EdgeList{N: 4, U: []uint32{0}, V: []uint32{3}}, graph.BuildOptions{})
	out := edgeMapFlat(sched, g, FromSparse(4, []uint32{1, 2}),
		func(s, d uint32, w int32) bool { return true },
		func(d uint32) bool { return true }, Opts{})
	VertexMap(sched, out, func(v uint32) { t.Errorf("empty result has member %d", v) })
	if out.Size() != 0 {
		t.Fatalf("result size = %d, want 0", out.Size())
	}
}

// TestVertexMapDenseVisitsEachMemberOnce maps over a subset held only as
// flags, at several widths: every member is visited once and no other
// vertex is.
func TestVertexMapDenseVisitsEachMemberOnce(t *testing.T) {
	const n = 10000
	flags := make([]bool, n)
	for v := range flags {
		flags[v] = v%3 == 0
	}
	for _, p := range []int{1, 2, runtime.NumCPU()} {
		s := parallel.New(p)
		vs := FromDense(s, flags, -1)
		counts := make([]uint32, n)
		VertexMap(s, vs, func(v uint32) { atomics.FetchAndAdd32(&counts[v], 1) })
		s.Close()
		for v, c := range counts {
			want := uint32(0)
			if flags[v] {
				want = 1
			}
			if c != want {
				t.Fatalf("p=%d: vertex %d visited %d times, want %d", p, v, c, want)
			}
		}
	}
}
