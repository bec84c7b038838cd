package core

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/seqref"
)

// biccEdgePartition collects the edge labelling induced by our Bicc query
// structure as a map from normalized edge keys to labels.
func biccEdgePartition(g graph.Graph, b *Bicc) map[uint64]uint32 {
	out := map[uint64]uint32{}
	for v := 0; v < g.N(); v++ {
		g.OutNgh(uint32(v), func(u uint32, _ int32) bool {
			if u > uint32(v) {
				out[seqref.EdgeKey(uint32(v), u)] = b.EdgeLabel(uint32(v), u)
			}
			return true
		})
	}
	return out
}

// samePartitionMaps checks two edge labellings induce the same partition.
func samePartitionMaps(a, b map[uint64]uint32) bool {
	if len(a) != len(b) {
		return false
	}
	fwd := map[uint32]uint32{}
	bwd := map[uint32]uint32{}
	for k, la := range a {
		lb, ok := b[k]
		if !ok {
			return false
		}
		if x, seen := fwd[la]; seen && x != lb {
			return false
		}
		if y, seen := bwd[lb]; seen && y != la {
			return false
		}
		fwd[la] = lb
		bwd[lb] = la
	}
	return true
}

func TestBiconnectivityMatchesHopcroftTarjan(t *testing.T) {
	for name, g := range symGraphs() {
		if g.M() == 0 {
			continue
		}
		want := seqref.BCC(g)
		got := biccEdgePartition(g, Biconnectivity(sched, g))
		if !samePartitionMaps(want, got) {
			t.Fatalf("%s: biconnectivity edge partition mismatch", name)
		}
	}
}

func TestBiconnectivityKnownShapes(t *testing.T) {
	cases := []struct {
		name string
		el   *graph.EdgeList
		want int // number of biconnected components
	}{
		{"triangle", &graph.EdgeList{N: 3, U: []uint32{0, 1, 2}, V: []uint32{1, 2, 0}}, 1},
		{"path4", gen.Path(4), 3},
		{"bowtie", &graph.EdgeList{ // two triangles sharing vertex 0
			N: 5,
			U: []uint32{0, 1, 2, 0, 3, 4},
			V: []uint32{1, 2, 0, 3, 4, 0},
		}, 2},
		{"cycle-with-pendant", &graph.EdgeList{
			N: 5,
			U: []uint32{0, 1, 2, 3, 0},
			V: []uint32{1, 2, 3, 0, 4},
		}, 2},
		{"two-triangles-shared-edge", &graph.EdgeList{
			N: 4,
			U: []uint32{0, 1, 2, 0, 1, 3},
			V: []uint32{1, 2, 0, 3, 3, 2},
		}, 1},
	}
	for _, c := range cases {
		g := graph.FromEdgeList(sched, c.el.N, c.el, graph.BuildOptions{Symmetrize: true})
		b := Biconnectivity(sched, g)
		if got := NumBiccLabels(sched, g, b); got != c.want {
			t.Fatalf("%s: %d BCCs want %d", c.name, got, c.want)
		}
		want := seqref.BCC(g)
		if !samePartitionMaps(want, biccEdgePartition(g, b)) {
			t.Fatalf("%s: partition mismatch vs Hopcroft-Tarjan", c.name)
		}
	}
}

func TestBiconnectivityRandomGraphsProperty(t *testing.T) {
	for seed := uint64(0); seed < 6; seed++ {
		g := gen.BuildErdosRenyi(sched, 150, 300, true, false, 2000+seed)
		want := seqref.BCC(g)
		got := biccEdgePartition(g, Biconnectivity(sched, g))
		if !samePartitionMaps(want, got) {
			t.Fatalf("seed %d: biconnectivity mismatch", seed)
		}
	}
}

func TestNumBiccLabelsCountsDistinct(t *testing.T) {
	g := graph.FromEdgeList(sched, 4, gen.Path(4), graph.BuildOptions{Symmetrize: true})
	b := Biconnectivity(sched, g)
	if got := NumBiccLabels(sched, g, b); got != 3 {
		t.Fatalf("path4 has %d BCCs want 3", got)
	}
}
