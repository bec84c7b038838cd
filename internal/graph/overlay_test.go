package graph

import (
	"bytes"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/parallel"
	"repro/internal/xrand"
)

// randomEdges returns a deterministic pseudo-random edge list over n
// vertices. Weights (when weighted) are a pure function of the endpoints so
// a duplicate edge always carries the same weight and min-weight dedup
// cannot diverge between build orders.
func randomEdges(seed uint64, n, m int, weighted bool) *EdgeList {
	el := NewEdgeList(n, m, weighted)
	for i := 0; i < m; i++ {
		u := uint32(xrand.Uniform(seed, uint64(2*i), uint64(n)))
		v := uint32(xrand.Uniform(seed, uint64(2*i+1), uint64(n)))
		var w int32
		if weighted {
			// Weight is a pure function of the unordered pair so every copy
			// of an edge (either direction, any batch) carries the same
			// weight and min-weight dedup cannot diverge between builds.
			lo, hi := min(u, v), max(u, v)
			w = int32(xrand.Hash32(uint64(lo)<<32|uint64(hi), 7)%100) + 1
		}
		el.Add(u, v, w)
	}
	return el
}

// unionList concatenates two edge lists over the same vertex set.
func unionList(a, b *EdgeList) *EdgeList {
	out := NewEdgeList(a.N, a.Len()+b.Len(), a.Weighted())
	for _, el := range []*EdgeList{a, b} {
		for i := 0; i < el.Len(); i++ {
			var w int32
			if el.Weighted() {
				w = el.W[i]
			}
			out.Add(el.U[i], el.V[i], w)
		}
	}
	return out
}

// collect gathers (neighbor, weight) pairs from an iterator-style method.
func collect(iter func(func(u uint32, w int32) bool)) (ns []uint32, ws []int32) {
	iter(func(u uint32, w int32) bool {
		ns = append(ns, u)
		ws = append(ws, w)
		return true
	})
	return
}

func TestOverlayMatchesFromScratch(t *testing.T) {
	s := sched
	for _, tc := range []struct {
		name      string
		symmetric bool
		weighted  bool
	}{
		{"directed", false, false},
		{"symmetric", true, false},
		{"weighted-directed", false, true},
		{"weighted-symmetric", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const n = 200
			base := FromEdgeList(s, n, randomEdges(1, n, 600, tc.weighted),
				BuildOptions{Symmetrize: tc.symmetric})
			batch := randomEdges(2, n, 150, tc.weighted)
			snap, added := ApplyEdges(s, base, batch)
			if added == 0 {
				t.Fatal("batch added no edges")
			}
			ov, ok := snap.(*Overlay)
			if !ok {
				t.Fatalf("snapshot is %T, want *Overlay", snap)
			}
			want := FromEdgeList(s, n, unionList(base.ToEdgeListSeq(), batch),
				BuildOptions{Symmetrize: tc.symmetric})
			if ov.N() != want.N() || ov.M() != want.M() {
				t.Fatalf("overlay n=%d m=%d, want n=%d m=%d", ov.N(), ov.M(), want.N(), want.M())
			}
			if ov.Weighted() != want.Weighted() || ov.Symmetric() != want.Symmetric() {
				t.Fatal("shape flags diverge")
			}
			// In-edges are the out-edges of the transpose: the transposed
			// overlay must match the transposed from-scratch build.
			tr, wtr := ov.Transpose(), want.Transpose()
			var buf []uint32
			for v := uint32(0); v < n; v++ {
				if ov.OutDeg(v) != want.OutDeg(v) || tr.OutDeg(v) != wtr.OutDeg(v) {
					t.Fatalf("degree mismatch at %d", v)
				}
				gotN, gotW := collect(func(f func(uint32, int32) bool) { ov.OutNgh(v, f) })
				wantN, wantW := collect(func(f func(uint32, int32) bool) { want.OutNgh(v, f) })
				if !slices.Equal(gotN, wantN) || !slices.Equal(gotW, wantW) {
					t.Fatalf("out(%d): got %v/%v want %v/%v", v, gotN, gotW, wantN, wantW)
				}
				gotN, gotW = collect(func(f func(uint32, int32) bool) { tr.OutNgh(v, f) })
				wantN, wantW = collect(func(f func(uint32, int32) bool) { wtr.OutNgh(v, f) })
				if !slices.Equal(gotN, wantN) || !slices.Equal(gotW, wantW) {
					t.Fatalf("in(%d): got %v/%v want %v/%v", v, gotN, gotW, wantN, wantW)
				}
				buf = ov.DecodeOut(v, buf)
				if !slices.Equal(slices.Clone(buf), want.OutNghSlice(v)) {
					t.Fatalf("DecodeOut(%d) = %v want %v", v, buf, want.OutNghSlice(v))
				}
				deg := ov.OutDeg(v)
				if deg >= 2 {
					mid, _ := collect(func(f func(uint32, int32) bool) { ov.OutRange(v, 1, deg-1, f) })
					if !slices.Equal(mid, want.OutNghSlice(v)[1:deg-1]) {
						t.Fatalf("OutRange(%d) = %v", v, mid)
					}
				}
			}
			for i := 0; i < batch.Len(); i++ {
				u, v := batch.U[i], batch.V[i]
				if u != v && !ov.HasEdge(u, v) {
					t.Fatalf("inserted edge (%d,%d) missing", u, v)
				}
			}
		})
	}
}

// ToEdgeListSeq converts a CSR back to an edge list sequentially (test
// helper; the relabel.go ToEdgeList needs a scheduler and this keeps the
// conversions independent of the code under test).
func (g *CSR) ToEdgeListSeq() *EdgeList {
	el := NewEdgeList(g.N(), g.M(), g.Weighted())
	for u := uint32(0); u < uint32(g.N()); u++ {
		g.OutNgh(u, func(v uint32, w int32) bool {
			if !g.Weighted() {
				w = 0
			}
			el.Add(u, v, w)
			return true
		})
	}
	return el
}

func TestCompactByteIdenticalToFromScratch(t *testing.T) {
	s := sched
	for _, symmetric := range []bool{false, true} {
		for _, weighted := range []bool{false, true} {
			const n = 300
			base := FromEdgeList(s, n, randomEdges(3, n, 900, weighted),
				BuildOptions{Symmetrize: symmetric})
			batch := randomEdges(4, n, 250, weighted)
			snap, _ := ApplyEdges(s, base, batch)
			got := snap.(*Overlay).Compact(s)
			want := FromEdgeList(s, n, unionList(base.ToEdgeListSeq(), batch),
				BuildOptions{Symmetrize: symmetric})
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("symmetric=%v weighted=%v: compacted CSR differs from from-scratch build", symmetric, weighted)
			}
			if !bytes.Equal(binBytes(t, got), binBytes(t, want)) {
				t.Fatalf("symmetric=%v weighted=%v: serialized bytes differ", symmetric, weighted)
			}
		}
	}
}

// A SplitCSR cut graph is out-only; an overlay on one still compacts, to the
// out-only CSR of the union edge set.
func TestCompactOutOnlyBase(t *testing.T) {
	g, owner := splitFixture(t, sched)
	_, cuts := SplitCSR(sched, g, owner, 3)
	batch := &EdgeList{N: g.N(), U: []uint32{0, 5}, V: []uint32{2, 8}, W: []int32{1, 1}}
	snap, added := ApplyEdges(sched, cuts[0], batch)
	if added != 2 {
		t.Fatalf("added %d edges, want 2", added)
	}
	c := snap.(*Overlay).Compact(sched)
	want := FromEdgeList(sched, g.N(), unionList(cuts[0].ToEdgeListSeq(), batch), BuildOptions{})
	if !bytes.Equal(binBytes(t, c), binBytes(t, want)) || c.Transposed() != nil {
		t.Fatal("compacted out-only overlay differs from the union edge set, or gained a transpose")
	}
}

func TestApplyEdgesDeterministicAcrossThreads(t *testing.T) {
	threadCounts := []int{1, 4, runtime.NumCPU()}
	var ref *CSR
	for _, p := range threadCounts {
		s := parallel.New(p)
		const n = 500
		base := FromEdgeList(s, n, randomEdges(5, n, 2000, false), BuildOptions{Symmetrize: true})
		snap, _ := ApplyEdges(s, base, randomEdges(6, n, 400, false))
		snap, _ = ApplyEdges(s, snap, randomEdges(7, n, 400, false))
		got := snap.(*Overlay).Compact(s)
		if ref == nil {
			ref = got
			continue
		}
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("compacted snapshot at %d threads differs from 1-thread result", p)
		}
	}
}

func TestApplyEdgesIdempotentAndChaining(t *testing.T) {
	s := sched
	const n = 100
	base := FromEdgeList(s, n, randomEdges(8, n, 300, false), BuildOptions{Symmetrize: true})
	batch := randomEdges(9, n, 80, false)
	snap, added := ApplyEdges(s, base, batch)
	if added == 0 {
		t.Fatal("first apply added nothing")
	}
	// Re-applying the identical batch is a no-op: every edge now exists.
	again, added2 := ApplyEdges(s, snap, batch)
	if added2 != 0 {
		t.Fatalf("re-apply added %d edges, want 0", added2)
	}
	if again != snap {
		t.Fatal("no-op apply did not return the same snapshot")
	}
	// A second distinct batch merges into the delta rather than chaining
	// overlays, and the base CSR pointer is preserved.
	snap2, _ := ApplyEdges(s, snap, randomEdges(10, n, 80, false))
	ov := snap2.(*Overlay)
	if ov.Base() != base {
		t.Fatal("chained apply rebased the overlay")
	}
	if ov.DeltaM() <= snap.(*Overlay).DeltaM() {
		t.Fatal("second batch did not grow the delta")
	}
	// Self-loops never enter the snapshot.
	loops := &EdgeList{N: n, U: []uint32{5, 6}, V: []uint32{5, 6}}
	_, addedLoops := ApplyEdges(s, snap2, loops)
	if addedLoops != 0 {
		t.Fatalf("self-loops added %d edges", addedLoops)
	}
}
