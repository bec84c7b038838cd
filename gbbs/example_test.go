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

func ExampleEngine_BFS() {
	eng := gbbs.New()
	dist, err := eng.BFS(context.Background(), pentagonGraph(eng), 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(dist)
	// Output: [0 1 2 1 2]
}

func ExampleEngine_Connectivity() {
	eng := gbbs.New()
	labels, err := eng.Connectivity(context.Background(), pentagonGraph(eng))
	if err != nil {
		log.Fatal(err)
	}
	num, largest := gbbs.ComponentCount(labels)
	fmt.Println(num, largest)
	// Output: 1 5
}

func ExampleEngine_KCore() {
	eng := gbbs.New()
	coreness, _, err := eng.KCore(context.Background(), pentagonGraph(eng))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(coreness, gbbs.Degeneracy(coreness))
	// Output: [2 2 2 2 1] 2
}

func ExampleEngine_TriangleCount() {
	// A triangle plus a dangling edge.
	eng := gbbs.New()
	el := &gbbs.EdgeList{N: 4, U: []uint32{0, 1, 2, 2}, V: []uint32{1, 2, 0, 3}}
	tc, err := eng.TriangleCount(context.Background(), build(eng, gbbs.Edges(el), gbbs.Symmetrize()))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(tc)
	// Output: 1
}

func ExampleEngine_WeightedBFS() {
	// 0 -> 1 (5), 0 -> 2 (1), 2 -> 1 (1): the shortest path to 1 goes
	// through 2.
	eng := gbbs.New()
	el := &gbbs.EdgeList{
		N: 3,
		U: []uint32{0, 0, 2},
		V: []uint32{1, 2, 1},
		W: []int32{5, 1, 1},
	}
	dist, err := eng.WeightedBFS(context.Background(), build(eng, gbbs.Edges(el), gbbs.Symmetrize()), 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(dist)
	// Output: [0 2 1]
}

func ExampleEngine_MSF() {
	// Triangle with weights 1, 2, 3: the MSF takes the two lightest edges.
	eng := gbbs.New()
	el := &gbbs.EdgeList{
		N: 3,
		U: []uint32{0, 1, 0},
		V: []uint32{1, 2, 2},
		W: []int32{1, 2, 3},
	}
	forest, total, err := eng.MSF(context.Background(), build(eng, gbbs.Edges(el), gbbs.Symmetrize()))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(len(forest), total)
	// Output: 2 3
}

func ExampleEngine_SCC() {
	// Directed: 0 -> 1 -> 2 -> 0 is one SCC; 3 hangs off it.
	eng := gbbs.New()
	el := &gbbs.EdgeList{N: 4, U: []uint32{0, 1, 2, 2}, V: []uint32{1, 2, 0, 3}}
	labels, err := eng.SCC(context.Background(), build(eng, gbbs.Edges(el)), gbbs.SCCOpts{})
	if err != nil {
		log.Fatal(err)
	}
	num, largest := gbbs.ComponentCount(labels)
	fmt.Println(num, largest)
	// Output: 2 3
}

func ExampleEncodeCompressed() {
	eng := gbbs.New()
	g := build(eng, gbbs.Torus(4), gbbs.Symmetrize())
	cg := build(eng, gbbs.Torus(4), gbbs.Symmetrize(), gbbs.EncodeCompressed(0))
	// Same algorithms, same answers, on the compressed representation.
	ctx := context.Background()
	a, err := eng.BFS(ctx, g, 0)
	if err != nil {
		log.Fatal(err)
	}
	b, err := eng.BFS(ctx, cg, 0)
	if err != nil {
		log.Fatal(err)
	}
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
		}
	}
	fmt.Println(same, cg.M() == g.M())
	// Output: true true
}

func ExampleEngine_Coloring() {
	eng := gbbs.New()
	g := pentagonGraph(eng)
	colors, err := eng.Coloring(context.Background(), g)
	if err != nil {
		log.Fatal(err)
	}
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
