package ligra

import (
	"runtime"
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
	// At most one edge into each destination returns true, as the
	// filter-free traversals require.
	update := func(u, v uint32, _ int32) bool { return u+1 == v }
	always := func(uint32) bool { return true }
	traversals := []struct {
		name  string
		em    edgeMapFunc
		dense bool
		cond  Cond
		opt   Opts
	}{
		{"dense", EdgeMap, true, always, Opts{}},
		{"forward", EdgeMap, true, nil, Opts{}},
		{"blocked", EdgeMap, false, always, Opts{NoDense: true}},
		{"flat", edgeMapFlat, false, always, Opts{}},
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
					tr.em(s, g, frontier, update, tr.cond, tr.opt)
				})
			}
			if allocs[0] != allocs[1] {
				t.Errorf("%s (compressed=%v): %v allocs per EdgeMap at side %d, %v at side %d; want equal",
					tr.name, compressed, allocs[0], budgetSides[0], allocs[1], budgetSides[1])
			}
		}
	}
}

// bytesPerRun is testing.AllocsPerRun over allocated bytes rather than
// objects: a form packed from n flags is one object whose size grows with n.
func bytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestVertexMapDenseAllocsIndependentOfN checks that VertexMap walks a
// dense-only subset's flags: packing the sparse form would allocate four
// bytes per member.
func TestVertexMapDenseAllocsIndependentOfN(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	s := parallel.New(1)
	defer s.Close()
	var bytes [2]uint64
	for i, side := range budgetSides {
		flags := make([]bool, side*side)
		for v := range flags {
			flags[v] = v%2 == 0
		}
		vs := FromDense(s, flags, -1)
		bytes[i] = bytesPerRun(10, func() { VertexMap(s, vs, func(uint32) {}) })
	}
	if bytes[0] != bytes[1] {
		t.Errorf("%d bytes per VertexMap at side %d, %d at side %d; want equal",
			bytes[0], budgetSides[0], bytes[1], budgetSides[1])
	}
}
