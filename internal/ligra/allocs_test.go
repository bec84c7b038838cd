package ligra

import (
	"testing"

	"repro/internal/compress"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/parallel"
)

// The allocation budget tests pin the round-path rule: a neighbor-visit
// closure is built once per ForRange block, never once per vertex. On a
// one-worker scheduler every loop is a single block, so the allocations of
// one call must not grow with the graph.

// budgetSides are the two grid sides each budget is measured at.
var budgetSides = [2]int{32, 128}

func budgetGrid(s *parallel.Scheduler, side int) *graph.CSR {
	return graph.FromEdgeList(s, side*side, gen.Grid2D(side), graph.BuildOptions{Symmetrize: true})
}

// gridRing returns, in increasing order, the vertices of the square ring a
// quarter of the side in from the grid's border.
func gridRing(side int) []uint32 {
	lo, hi := side/4, side-1-side/4
	var ids []uint32
	for y := lo; y <= hi; y++ {
		for x := lo; x <= hi; x++ {
			if y == lo || y == hi || x == lo || x == hi {
				ids = append(ids, uint32(y*side+x))
			}
		}
	}
	return ids
}

func TestEdgeMapAllocsIndependentOfN(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	s := parallel.New(1)
	defer s.Close()
	update := func(u, v uint32, _ int32) bool { return u < v }
	cond := func(uint32) bool { return true }
	traversals := []struct {
		name  string
		dense bool
		opt   Opts
	}{
		{"dense", true, Opts{}},
		{"blocked", false, Opts{NoDense: true}},
		{"flat", false, Opts{NoDense: true, NoBlocked: true}},
	}
	for _, compressed := range []bool{false, true} {
		for _, tr := range traversals {
			var allocs [2]float64
			for i, side := range budgetSides {
				csr := budgetGrid(s, side)
				var g graph.Graph = csr
				if compressed {
					g = compress.FromCSR(s, csr, 0)
				}
				frontier := FromSparse(g.N(), gridRing(side))
				if tr.dense {
					all := make([]bool, g.N())
					for v := range all {
						all[v] = true
					}
					frontier = FromDense(s, all, len(all))
				}
				allocs[i] = testing.AllocsPerRun(10, func() {
					EdgeMap(s, g, frontier, update, cond, tr.opt)
				})
			}
			if allocs[0] != allocs[1] {
				t.Errorf("%s (compressed=%v): %v allocs per EdgeMap at side %d, %v at side %d; want equal",
					tr.name, compressed, allocs[0], budgetSides[0], allocs[1], budgetSides[1])
			}
		}
	}
}
