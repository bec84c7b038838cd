package core

import (
	"runtime"
	"testing"

	"repro/internal/compress"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/parallel"
)

// The per-vertex edge passes build their visit closures once per block, so
// on a one-worker scheduler (one block per loop) their allocations per call
// do not grow with the graph, on the CSR and on the compressed form.
func TestPerVertexPassAllocsIndependentOfN(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	s := parallel.New(1)
	defer s.Close()
	// Each pass prepares its inputs outside the measured call, which it
	// returns.
	passes := map[string]func(g graph.Graph) func(){
		"contractEdges": func(g graph.Graph) func() {
			labels := make([]uint32, g.N())
			for v := range labels {
				labels[v] = uint32(v / 4)
			}
			k := (g.N() + 3) / 4
			return func() { contractEdges(s, g, labels, k) }
		},
		"extractEdges": func(g graph.Graph) func() {
			return func() { extractEdges(s, g, false) }
		},
		"UnionFindCC": func(g graph.Graph) func() {
			return func() { UnionFindCC(s, g) }
		},
		// Biconnectivity's last pass: union-find over G minus its critical
		// edges, here every tree edge of a spanning forest.
		"filtered unionFind": func(g graph.Graph) func() {
			parent, _, _ := SpanningForest(s, g)
			critical := make([]bool, g.N())
			for v := range critical {
				critical[v] = true
			}
			return func() {
				unionFind(s, g, func(v, u uint32) bool { return !isCritical(critical, parent, v, u) })
			}
		},
		"NumBiccLabels": func(g graph.Graph) func() {
			b := Biconnectivity(s, g)
			return func() { NumBiccLabels(s, g, b) }
		},
		"gatherNeighbors": func(g graph.Graph) func() {
			ids := make([]uint32, g.N())
			offsets := make([]int64, g.N())
			total := int64(0)
			for v := range ids {
				ids[v] = uint32(v)
				offsets[v] = total
				total += int64(g.OutDeg(uint32(v)))
			}
			dst := make([]uint32, total)
			return func() { gatherNeighbors(s, g, ids, offsets, dst) }
		},
	}
	sides := [2]int{32, 128}
	for name, prepare := range passes {
		for _, compressed := range []bool{false, true} {
			var allocs [2]float64
			for i, side := range sides {
				csr := graph.FromEdgeList(s, side*side, gen.Grid2D(side), graph.BuildOptions{Symmetrize: true})
				var g graph.Graph = csr
				if compressed {
					g = compress.FromCSR(s, csr, 0)
				}
				allocs[i] = testing.AllocsPerRun(10, prepare(g))
			}
			if allocs[0] != allocs[1] {
				t.Errorf("%s (compressed=%v): %v allocs per call at side %d, %v at side %d; want equal",
					name, compressed, allocs[0], sides[0], allocs[1], sides[1])
			}
		}
	}
}

// TriangleCount's allocations per call do not grow with the graph either,
// flat or compressed. Both sides sit above 16384 vertices, where the radix
// sort that ranks the vertices switches from one stack-held block bound to a
// Blocks slice, a fixed step that is not growth.
func TestTriangleCountAllocsIndependentOfN(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	s := parallel.New(1)
	defer s.Close()
	// The process's first collection starts the runtime's mark workers,
	// whose allocations would land in whichever measurement it falls in.
	runtime.GC()
	sides := [2]int{128, 256}
	for _, compressed := range []bool{false, true} {
		var allocs [2]float64
		for i, side := range sides {
			csr := graph.FromEdgeList(s, side*side, gen.Grid2D(side), graph.BuildOptions{Symmetrize: true})
			var g graph.Graph = csr
			if compressed {
				g = compress.FromCSR(s, csr, 0)
			}
			allocs[i] = testing.AllocsPerRun(5, func() { TriangleCount(s, g) })
		}
		if allocs[0] != allocs[1] {
			t.Errorf("TriangleCount (compressed=%v): %v allocs per call at side %d, %v at side %d; want equal",
				compressed, allocs[0], sides[0], allocs[1], sides[1])
		}
	}
}

// At P=4, TriangleCount allocates at most rankGraph's bytes, one n-byte mark
// array per worker and a constant, on the flat and on the compressed form:
// the mark arrays are reused from block to block. There are
// n/tcBlockRanks = 64 blocks here, so an array per block would allocate
// 64·n bytes, 16 times the P·n allowed.
func TestTriangleCountAllocsOneMarkArrayPerWorker(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const p, slack = 4, 16 << 10
	s := parallel.New(p)
	defer s.Close()
	csr := gen.BuildRMAT(s, 14, 8, true, false, 5)
	n := csr.N()
	bytesOf := func(f func()) uint64 {
		f() // start the pool's workers outside the measurement
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	for _, g := range []graph.Graph{csr, compress.FromCSR(s, csr, 0)} {
		ranked := bytesOf(func() { rankGraph(s, g) })
		counted := bytesOf(func() { TriangleCount(s, g) })
		if budget := ranked + uint64(p*n) + slack; counted > budget {
			t.Errorf("TriangleCount on %T allocated %d bytes at P=%d, n=%d; budget %d (rankGraph %d + P·n %d + %d)",
				g, counted, p, n, budget, ranked, p*n, slack)
		}
		t.Logf("%T: rankGraph %d bytes, TriangleCount %d bytes, P·n %d", g, ranked, counted, p*n)
	}
}

// extractEdges and contractEdges allocate their output columns and at most
// 64 KiB besides, at P=1 and at P=4, weighted or not: graph.FilterEdges
// writes the kept edges straight into the columns, with no per-vertex
// array and no intermediate graph. On symmetric rmat scale 14 an n-sized
// degree array alone would take 128 KiB.
func TestEdgeListAllocsOnlyOutput(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const slack = 64 << 10
	for _, p := range []int{1, 4} {
		s := parallel.New(p)
		csr := gen.BuildRMAT(s, 14, 8, true, false, 5)
		labels := make([]uint32, csr.N())
		for v := range labels {
			labels[v] = uint32(v / 4)
		}
		k := (csr.N() + 3) / 4
		calls := map[string]func() int{
			"extractEdges": func() int {
				eu, ev, ew := extractEdges(s, csr, false)
				return 4 * (cap(eu) + cap(ev) + cap(ew))
			},
			"extractEdges weighted": func() int {
				eu, ev, ew := extractEdges(s, csr, true)
				return 4 * (cap(eu) + cap(ev) + cap(ew))
			},
			"contractEdges": func() int {
				el := contractEdges(s, csr, labels, k)
				return 4 * (cap(el.U) + cap(el.V) + cap(el.W))
			},
		}
		for name, call := range calls {
			call() // start the pool's workers outside the measurement
			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			out := call()
			runtime.ReadMemStats(&after)
			if got := after.TotalAlloc - before.TotalAlloc; got > uint64(out+slack) {
				t.Errorf("%s at P=%d allocated %d bytes; budget %d (output columns %d + %d)",
					name, p, got, out+slack, out, slack)
			} else {
				t.Logf("%s at P=%d: %d bytes over %d bytes of output columns", name, p, int(got)-out, out)
			}
		}
		s.Close()
	}
}
