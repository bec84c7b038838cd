package gbbs_test

import (
	"context"
	"fmt"
	"log"

	"repro/gbbs"
)

// build materializes src through eng, exiting on error.
func build(eng *gbbs.Engine, src gbbs.GraphSource, tfs ...gbbs.Transform) gbbs.Graph {
	g, err := eng.Build(context.Background(), src, tfs...)
	if err != nil {
		log.Fatal(err)
	}
	return g
}

// A 4-cycle with a pendant vertex: 0-1-2-3-0, 3-4.
func pentagonGraph(eng *gbbs.Engine) gbbs.Graph {
	el := &gbbs.EdgeList{
		N: 5,
		U: []uint32{0, 1, 2, 3, 3},
		V: []uint32{1, 2, 3, 0, 4},
	}
	return build(eng, gbbs.Edges(el), gbbs.Symmetrize())
}

// run dispatches the named algorithm on g through eng, exiting on error.
func run(eng *gbbs.Engine, name string, g gbbs.Graph) gbbs.Result {
	res, err := eng.Run(context.Background(), name, gbbs.Request{Graph: g})
	if err != nil {
		log.Fatal(err)
	}
	return res
}

func ExampleEngine_Run_bfs() {
	eng := gbbs.New()
	res := run(eng, "bfs", pentagonGraph(eng)) // Request.Source defaults to 0
	fmt.Println(res.Value)
	// Output: [0 1 2 1 2]
}

func ExampleEngine_Run_cc() {
	eng := gbbs.New()
	labels := run(eng, "cc", pentagonGraph(eng)).Value.([]uint32)
	num, largest := gbbs.ComponentCount(labels)
	fmt.Println(num, largest)
	// Output: 1 5
}

func ExampleEngine_Run_kcore() {
	eng := gbbs.New()
	coreness := run(eng, "kcore", pentagonGraph(eng)).Value.([]uint32)
	fmt.Println(coreness, gbbs.Degeneracy(coreness))
	// Output: [2 2 2 2 1] 2
}

func ExampleEngine_Run_tc() {
	// A triangle plus a dangling edge.
	eng := gbbs.New()
	el := &gbbs.EdgeList{N: 4, U: []uint32{0, 1, 2, 2}, V: []uint32{1, 2, 0, 3}}
	res := run(eng, "tc", build(eng, gbbs.Edges(el), gbbs.Symmetrize()))
	fmt.Println(res.Value)
	// Output: 1
}

func ExampleEngine_Run_wbfs() {
	// 0 -> 1 (5), 0 -> 2 (1), 2 -> 1 (1): the shortest path to 1 goes
	// through 2.
	eng := gbbs.New()
	el := &gbbs.EdgeList{
		N: 3,
		U: []uint32{0, 0, 2},
		V: []uint32{1, 2, 1},
		W: []int32{5, 1, 1},
	}
	res := run(eng, "wbfs", build(eng, gbbs.Edges(el), gbbs.Symmetrize()))
	fmt.Println(res.Value)
	// Output: [0 2 1]
}

func ExampleEngine_Run_msf() {
	// Triangle with weights 1, 2, 3: the MSF takes the two lightest edges.
	eng := gbbs.New()
	el := &gbbs.EdgeList{
		N: 3,
		U: []uint32{0, 1, 0},
		V: []uint32{1, 2, 2},
		W: []int32{1, 2, 3},
	}
	forest := run(eng, "msf", build(eng, gbbs.Edges(el), gbbs.Symmetrize())).Value.([]gbbs.WEdge)
	total := 0
	for _, e := range forest {
		total += int(e.W)
	}
	fmt.Println(len(forest), total)
	// Output: 2 3
}

func ExampleEngine_Run_scc() {
	// Directed: 0 -> 1 -> 2 -> 0 is one SCC; 3 hangs off it.
	eng := gbbs.New()
	el := &gbbs.EdgeList{N: 4, U: []uint32{0, 1, 2, 2}, V: []uint32{1, 2, 0, 3}}
	labels := run(eng, "scc", build(eng, gbbs.Edges(el))).Value.([]uint32)
	num, largest := gbbs.ComponentCount(labels)
	fmt.Println(num, largest)
	// Output: 2 3
}

func ExampleEncodeCompressed() {
	eng := gbbs.New()
	g := build(eng, gbbs.Torus(4), gbbs.Symmetrize())
	cg := build(eng, gbbs.Torus(4), gbbs.Symmetrize(), gbbs.EncodeCompressed(0))
	// Same algorithms, same answers, on the compressed representation.
	a := run(eng, "bfs", g).Value.([]uint32)
	b := run(eng, "bfs", cg).Value.([]uint32)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
		}
	}
	fmt.Println(same, cg.M() == g.M())
	// Output: true true
}

func ExampleEngine_Run_coloring() {
	eng := gbbs.New()
	g := pentagonGraph(eng)
	colors := run(eng, "coloring", g).Value.([]uint32)
	// A cycle plus pendant is 2-colorable... but greedy may use 3 on odd
	// structures; assert validity instead of exact colors.
	ok := true
	for v := uint32(0); int(v) < g.N(); v++ {
		g.OutNgh(v, func(u uint32, _ int32) bool {
			if colors[u] == colors[v] {
				ok = false
			}
			return true
		})
	}
	fmt.Println(ok, gbbs.NumColors(colors) <= 3)
	// Output: true true
}
