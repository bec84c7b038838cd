package compress

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/parallel"
)

// FilterEdges builds its visit closures once per block, so on a
// one-worker scheduler (one block per loop) its allocations per call do not
// grow with the graph, whether the source is a CSR or a compressed graph.
func TestSubgraphAllocsIndependentOfN(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	s := parallel.New(1)
	defer s.Close()
	keep := func(v, u uint32) bool { return v < u }
	sides := [2]int{32, 128}
	for _, compressed := range []bool{false, true} {
		var allocs [2]float64
		for i, side := range sides {
			csr := graph.FromEdgeList(s, side*side, gen.Grid2D(side), graph.BuildOptions{Symmetrize: true})
			var src graph.Graph = csr
			if compressed {
				src = FromCSR(s, csr, 0)
			}
			allocs[i] = testing.AllocsPerRun(10, func() { graph.FilterEdges(s, src, false, keep) })
		}
		if allocs[0] != allocs[1] {
			t.Errorf("FilterEdges (compressed source=%v): %v allocs per call at side %d, %v at side %d; want equal",
				compressed, allocs[0], sides[0], allocs[1], sides[1])
		}
	}
}
