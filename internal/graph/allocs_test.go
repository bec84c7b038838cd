package graph

import (
	"testing"

	"repro/internal/parallel"
)

// symGrid builds the side×side grid (no wrap-around), stored symmetrically.
func symGrid(s *parallel.Scheduler, side int) *CSR {
	n := side * side
	el := NewEdgeList(n, 2*n, false)
	for v := 0; v < n; v++ {
		if v%side+1 < side {
			el.Add(uint32(v), uint32(v+1), 1)
		}
		if v+side < n {
			el.Add(uint32(v), uint32(v+side), 1)
		}
	}
	return FromEdgeList(s, n, el, BuildOptions{Symmetrize: true})
}

// FilterEdges builds its visit closures once per block, so on a
// one-worker scheduler (one block per loop) its allocations per call do not
// grow with the graph, with or without weights.
func TestFilterEdgesAllocsIndependentOfN(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	s := parallel.New(1)
	defer s.Close()
	keep := func(v, u uint32) bool { return v < u }
	sides := [2]int{32, 128}
	for _, weighted := range []bool{false, true} {
		var allocs [2]float64
		for i, side := range sides {
			g := symGrid(s, side)
			allocs[i] = testing.AllocsPerRun(10, func() { FilterEdges(s, g, weighted, keep) })
		}
		if allocs[0] != allocs[1] {
			t.Errorf("weighted=%v: %v allocs per FilterEdges at side %d, %v at side %d; want equal",
				weighted, allocs[0], sides[0], allocs[1], sides[1])
		}
	}
}
