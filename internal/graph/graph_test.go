package graph

import (
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/parallel"
)

// sched is the scheduler every test in this package runs on, at the
// hardware width so the parallel code paths stay covered. Tests that need
// another width build their own with parallel.New.
var sched = parallel.New(runtime.NumCPU())

func smallDirected() *CSR {
	// 0->1, 0->2, 1->2, 2->0, 3 isolated
	el := &EdgeList{N: 4, U: []uint32{0, 0, 1, 2}, V: []uint32{1, 2, 2, 0}}
	return FromEdgeList(sched, 4, el, BuildOptions{})
}

func TestFromEdgeListDirected(t *testing.T) {
	g := smallDirected()
	if g.N() != 4 || g.M() != 4 {
		t.Fatalf("N=%d M=%d", g.N(), g.M())
	}
	if g.Symmetric() {
		t.Fatal("directed graph marked symmetric")
	}
	if !slices.Equal(g.OutNghSlice(0), []uint32{1, 2}) {
		t.Fatalf("out(0) = %v", g.OutNghSlice(0))
	}
	tr := g.Transposed()
	if !slices.Equal(tr.OutNghSlice(2), []uint32{0, 1}) {
		t.Fatalf("in(2) = %v", tr.OutNghSlice(2))
	}
	if g.OutDeg(3) != 0 || tr.OutDeg(3) != 0 {
		t.Fatal("isolated vertex has edges")
	}
	if tr.OutDeg(0) != 1 || g.OutDeg(2) != 1 {
		t.Fatalf("degree mismatch in(0)=%d out(2)=%d", tr.OutDeg(0), g.OutDeg(2))
	}
}

func TestFromEdgeListSymmetrize(t *testing.T) {
	el := &EdgeList{N: 3, U: []uint32{0, 1}, V: []uint32{1, 2}}
	g := FromEdgeList(sched, 3, el, BuildOptions{Symmetrize: true})
	if !g.Symmetric() || g.M() != 4 {
		t.Fatalf("symmetric=%v M=%d", g.Symmetric(), g.M())
	}
	if !slices.Equal(g.OutNghSlice(1), []uint32{0, 2}) {
		t.Fatalf("out(1) = %v", g.OutNghSlice(1))
	}
	if !slices.Equal(g.Transposed().OutNghSlice(1), []uint32{0, 2}) {
		t.Fatalf("in(1) = %v", g.Transposed().OutNghSlice(1))
	}
}

func TestFromEdgeListDedupAndSelfLoops(t *testing.T) {
	el := &EdgeList{
		N: 3,
		U: []uint32{0, 0, 0, 1, 1},
		V: []uint32{1, 1, 0, 2, 2},
	}
	g := FromEdgeList(sched, 3, el, BuildOptions{})
	if g.M() != 2 {
		t.Fatalf("M=%d want 2 (dedup + self-loop removal)", g.M())
	}
	g2 := FromEdgeList(sched, 3, el, BuildOptions{KeepDuplicates: true, KeepSelfLoops: true})
	if g2.M() != 5 {
		t.Fatalf("M=%d want 5 with keeps", g2.M())
	}
}

func TestWeightedDedupKeepsMinWeight(t *testing.T) {
	el := &EdgeList{
		N: 2,
		U: []uint32{0, 0, 0},
		V: []uint32{1, 1, 1},
		W: []int32{7, 3, 5},
	}
	g := FromEdgeList(sched, 2, el, BuildOptions{})
	if g.M() != 1 {
		t.Fatalf("M=%d", g.M())
	}
	var got int32
	g.OutNgh(0, func(u uint32, w int32) bool { got = w; return true })
	if got != 3 {
		t.Fatalf("weight = %d want min 3", got)
	}
}

func TestOutNghEarlyExit(t *testing.T) {
	g := smallDirected()
	count := 0
	g.OutNgh(0, func(u uint32, w int32) bool {
		count++
		return false
	})
	if count != 1 {
		t.Fatalf("early exit visited %d", count)
	}
}

func TestOutRange(t *testing.T) {
	el := &EdgeList{N: 5, U: []uint32{0, 0, 0, 0}, V: []uint32{1, 2, 3, 4}}
	g := FromEdgeList(sched, 5, el, BuildOptions{})
	var got []uint32
	g.OutRange(0, 1, 3, func(u uint32, w int32) bool {
		got = append(got, u)
		return true
	})
	if !slices.Equal(got, []uint32{2, 3}) {
		t.Fatalf("OutRange = %v", got)
	}
}

func TestTransposed(t *testing.T) {
	g := smallDirected()
	tr := g.Transposed()
	if !slices.Equal(tr.OutNghSlice(2), []uint32{0, 1}) {
		t.Fatalf("transpose out(2) = %v, want the in-neighbors [0 1]", tr.OutNghSlice(2))
	}
	// The transpose is linked both ways and read, not rebuilt, per call.
	if tr.Transposed() != g || g.Transposed() != tr {
		t.Fatal("transpose of the transpose is not the original")
	}
	// Symmetric graphs transpose to themselves.
	el := &EdgeList{N: 2, U: []uint32{0}, V: []uint32{1}}
	sg := FromEdgeList(sched, 2, el, BuildOptions{Symmetrize: true})
	if sg.Transposed() != sg {
		t.Fatal("symmetric transpose should be identity")
	}
}

func TestWeightsRideAlong(t *testing.T) {
	el := &EdgeList{
		N: 3,
		U: []uint32{0, 0, 1},
		V: []uint32{2, 1, 2},
		W: []int32{20, 10, 30},
	}
	g := FromEdgeList(sched, 3, el, BuildOptions{})
	if !g.Weighted() {
		t.Fatal("not weighted")
	}
	// Adjacency is sorted by target, so out(0) = [1(10), 2(20)].
	ws := g.OutWeightSlice(0)
	if !slices.Equal(g.OutNghSlice(0), []uint32{1, 2}) || !slices.Equal(ws, []int32{10, 20}) {
		t.Fatalf("out(0) = %v weights %v", g.OutNghSlice(0), ws)
	}
	// In-weights must match: in(2) = {0(20), 1(30)}, read both as slices
	// and through the Graph interface's Transpose.
	tr := g.Transposed()
	var inW []int32
	g.Transpose().OutNgh(2, func(u uint32, w int32) bool { inW = append(inW, w); return true })
	if !slices.Equal(tr.OutNghSlice(2), []uint32{0, 1}) || !slices.Equal(inW, []int32{20, 30}) ||
		!slices.Equal(tr.OutWeightSlice(2), inW) {
		t.Fatalf("in(2) = %v weights %v / %v", tr.OutNghSlice(2), inW, tr.OutWeightSlice(2))
	}
}

func TestMaxDegree(t *testing.T) {
	el := &EdgeList{N: 4, U: []uint32{0, 0, 0, 1}, V: []uint32{1, 2, 3, 2}}
	g := FromEdgeList(sched, 4, el, BuildOptions{})
	if g.MaxDegree() != 3 {
		t.Fatalf("MaxDegree = %d", g.MaxDegree())
	}
}

// Property: for any random edge list, in-degree sum equals out-degree sum
// equals M, and every stored edge's reverse is findable in the transpose.
func TestBuildDegreesProperty(t *testing.T) {
	err := quick.Check(func(raw []uint16) bool {
		n := 64
		el := &EdgeList{N: n}
		for i := 0; i+1 < len(raw); i += 2 {
			el.U = append(el.U, uint32(raw[i])%uint32(n))
			el.V = append(el.V, uint32(raw[i+1])%uint32(n))
		}
		g := FromEdgeList(sched, n, el, BuildOptions{})
		gt := g.Transpose()
		outSum, inSum := 0, 0
		for v := uint32(0); int(v) < n; v++ {
			outSum += g.OutDeg(v)
			inSum += gt.OutDeg(v)
		}
		if outSum != g.M() || inSum != g.M() {
			return false
		}
		// Every out-edge (v,u) appears as in-edge (u,v).
		ok := true
		for v := uint32(0); int(v) < n; v++ {
			for _, u := range g.OutNghSlice(v) {
				found := false
				gt.OutNgh(u, func(x uint32, _ int32) bool {
					if x == v {
						found = true
						return false
					}
					return true
				})
				if !found {
					ok = false
				}
			}
		}
		return ok
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAdjacencySorted(t *testing.T) {
	el := &EdgeList{N: 8, U: []uint32{3, 3, 3, 3}, V: []uint32{7, 1, 5, 0}}
	g := FromEdgeList(sched, 8, el, BuildOptions{})
	if !slices.IsSorted(g.OutNghSlice(3)) {
		t.Fatalf("adjacency not sorted: %v", g.OutNghSlice(3))
	}
}

func TestEdgeListHelpers(t *testing.T) {
	el := NewEdgeList(10, 4, true)
	el.Add(0, 1, 5)
	el.Add(1, 2, 6)
	if el.Len() != 2 || !el.Weighted() || el.Weight(1) != 6 {
		t.Fatalf("edge list helpers broken: %+v", el)
	}
	un := NewEdgeList(10, 1, false)
	un.Add(0, 1, 99)
	if un.Weight(0) != 1 {
		t.Fatal("unweighted Weight should be 1")
	}
}

func TestEmptyGraph(t *testing.T) {
	g := FromEdgeList(sched, 5, &EdgeList{N: 5}, BuildOptions{})
	if g.N() != 5 || g.M() != 0 {
		t.Fatalf("empty graph N=%d M=%d", g.N(), g.M())
	}
	for v := uint32(0); v < 5; v++ {
		if g.OutDeg(v) != 0 {
			t.Fatal("phantom edges")
		}
	}
}
