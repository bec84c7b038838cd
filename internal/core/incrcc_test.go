package core

import (
	"runtime"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/seqref"
	"repro/internal/xrand"
)

func TestUnionFindCCMatchesReference(t *testing.T) {
	for name, g := range symGraphs() {
		got := UnionFindCC(sched, g)
		if !seqref.SamePartition(seqref.Components(g), got) {
			t.Fatalf("%s: union-find partition differs from reference", name)
		}
	}
	for name, g := range dirGraphs() {
		got := UnionFindCC(sched, g)
		if !seqref.SamePartition(seqref.Components(g), got) {
			t.Fatalf("%s: directed union-find partition differs from reference", name)
		}
	}
}

func TestUnionFindCCLabelsAreComponentMinima(t *testing.T) {
	for name, g := range symGraphs() {
		labels := UnionFindCC(sched, g)
		minOf := map[uint32]uint32{}
		for v, l := range labels {
			if l > uint32(v) {
				t.Fatalf("%s: label %d > vertex %d", name, l, v)
			}
			if labels[l] != l {
				t.Fatalf("%s: label %d is not its own label (forest depth > 1)", name, l)
			}
			if m, ok := minOf[l]; !ok || uint32(v) < m {
				minOf[l] = uint32(v)
			}
		}
		for l, m := range minOf {
			if l != m {
				t.Fatalf("%s: component labeled %d but its minimum vertex is %d", name, l, m)
			}
		}
	}
}

func TestUnionFindCCDeterministicAcrossThreads(t *testing.T) {
	for name, g := range symGraphs() {
		var ref []uint32
		for _, p := range []int{1, 4, runtime.NumCPU()} {
			s := parallel.New(p)
			got := UnionFindCC(s, g)
			if ref == nil {
				ref = got
				continue
			}
			if !slices.Equal(got, ref) {
				t.Fatalf("%s: labels at %d threads differ from 1-thread labels", name, p)
			}
		}
	}
}

// incrBatch builds a deterministic batch of random edges over n vertices.
func incrBatch(seed uint64, n, m int) *graph.EdgeList {
	el := graph.NewEdgeList(n, m, false)
	for i := 0; i < m; i++ {
		el.Add(uint32(xrand.Uniform(seed, uint64(2*i), uint64(n))),
			uint32(xrand.Uniform(seed, uint64(2*i+1), uint64(n))), 0)
	}
	return el
}

func TestIncrementalCCMatchesFromScratch(t *testing.T) {
	s := sched
	const n = 2000
	// Sparse base so batches actually merge components.
	base := graph.FromEdgeList(s, n, incrBatch(11, n, 1200), graph.BuildOptions{Symmetrize: true})
	prev := UnionFindCC(s, base)

	var snap graph.Graph = base
	var batches []*graph.EdgeList
	for round := 0; round < 3; round++ {
		b := incrBatch(uint64(20+round), n, 150)
		batches = append(batches, b)
		snap, _ = graph.ApplyEdges(s, snap, b)

		got := IncrementalCC(s, prev, batches)
		want := UnionFindCC(s, snap)
		if !slices.Equal(got, want) {
			t.Fatalf("round %d: incremental labels differ from from-scratch labels", round)
		}
	}

	// Restarting from a later state with only the remaining batches also
	// matches: labels are canonical, so any prefix state works.
	mid := IncrementalCC(s, prev, batches[:1])
	end := IncrementalCC(s, mid, batches[1:])
	if !slices.Equal(end, IncrementalCC(s, prev, batches)) {
		t.Fatal("replay from intermediate state diverges")
	}
}

func TestIncrementalCCDeterministicAcrossThreads(t *testing.T) {
	const n = 3000
	var ref []uint32
	for _, p := range []int{1, 4, runtime.NumCPU()} {
		s := parallel.New(p)
		base := graph.FromEdgeList(s, n, incrBatch(31, n, 1500), graph.BuildOptions{Symmetrize: true})
		prev := UnionFindCC(s, base)
		got := IncrementalCC(s, prev, []*graph.EdgeList{incrBatch(32, n, 500), incrBatch(33, n, 500)})
		if ref == nil {
			ref = got
			continue
		}
		if !slices.Equal(got, ref) {
			t.Fatalf("incremental labels at %d threads differ", p)
		}
	}
}

func TestIncrementalCCEmptyAndNoop(t *testing.T) {
	s := sched
	g := symGraphs()["sparse-islands"]
	prev := UnionFindCC(s, g)
	if got := IncrementalCC(s, prev, nil); !slices.Equal(got, prev) {
		t.Fatal("no batches changed the labels")
	}
	// Self-loops and already-connected edges are no-ops.
	loops := &graph.EdgeList{N: g.N(), U: []uint32{0, 1, 5}, V: []uint32{0, 2, 5}}
	if got := IncrementalCC(s, prev, []*graph.EdgeList{loops}); !slices.Equal(got, prev) {
		t.Fatal("no-op batch changed the labels")
	}
}
