package core

import (
	"runtime"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/parallel"
)

// sched is the scheduler every test in this package runs on, at the
// hardware width so the parallel code paths stay covered. Tests that need
// another width build their own with parallel.New.
var sched = parallel.New(runtime.NumCPU())

// symGraphs returns the symmetric test fixture family: a spread of
// structures (power-law, high-diameter, random, degenerate) sized for fast
// tests.
func symGraphs() map[string]*graph.CSR {
	return map[string]*graph.CSR{
		"rmat":     gen.BuildRMAT(sched, 10, 8, true, false, 42),
		"torus":    gen.BuildTorus3D(sched, 7, false, 42),
		"er":       gen.BuildErdosRenyi(sched, 2000, 6000, true, false, 42),
		"er-dense": gen.BuildErdosRenyi(sched, 300, 8000, true, false, 42),
		"path":     graph.FromEdgeList(sched, 500, gen.Path(500), graph.BuildOptions{Symmetrize: true}),
		"cycle":    graph.FromEdgeList(sched, 500, gen.Cycle(500), graph.BuildOptions{Symmetrize: true}),
		"star":     graph.FromEdgeList(sched, 1000, gen.Star(1000), graph.BuildOptions{Symmetrize: true}),
		"grid":     graph.FromEdgeList(sched, 400, gen.Grid2D(20), graph.BuildOptions{Symmetrize: true}),
		"complete": graph.FromEdgeList(sched, 40, gen.Complete(40), graph.BuildOptions{Symmetrize: true}),
		"tree":     graph.FromEdgeList(sched, 511, gen.BinaryTree(511), graph.BuildOptions{Symmetrize: true}),
		"empty":    graph.FromEdgeList(sched, 64, &graph.EdgeList{N: 64}, graph.BuildOptions{Symmetrize: true}),
		"sparse-islands": graph.FromEdgeList(sched, 100, &graph.EdgeList{
			N: 100,
			U: []uint32{0, 1, 10, 11, 12, 50},
			V: []uint32{1, 2, 11, 12, 10, 51},
		}, graph.BuildOptions{Symmetrize: true}),
	}
}

// symWeightedGraphs returns weighted symmetric fixtures with paper-style
// weights in [1, log n).
func symWeightedGraphs() map[string]*graph.CSR {
	return map[string]*graph.CSR{
		"rmat-w":  gen.BuildRMAT(sched, 10, 8, true, true, 43),
		"torus-w": gen.BuildTorus3D(sched, 6, true, 43),
		"er-w":    gen.BuildErdosRenyi(sched, 1500, 6000, true, true, 43),
		"grid-w": graph.FromEdgeList(sched, 400,
			gen.WithRandomWeights(sched, gen.Grid2D(20), 9, 43),
			graph.BuildOptions{Symmetrize: true}),
		"path-w": graph.FromEdgeList(sched, 300,
			gen.WithRandomWeights(sched, gen.Path(300), 5, 43),
			graph.BuildOptions{Symmetrize: true}),
	}
}

// dirGraphs returns directed fixtures (with in-edges) for SCC, directed BFS
// and Bellman-Ford.
func dirGraphs() map[string]*graph.CSR {
	cycle3 := &graph.EdgeList{N: 7, U: []uint32{0, 1, 2, 3, 4, 5}, V: []uint32{1, 2, 0, 4, 5, 3}}
	dag := &graph.EdgeList{N: 6, U: []uint32{0, 0, 1, 2, 3, 4}, V: []uint32{1, 2, 3, 3, 4, 5}}
	return map[string]*graph.CSR{
		"rmat-dir":   gen.BuildRMAT(sched, 10, 8, false, false, 44),
		"er-dir":     gen.BuildErdosRenyi(sched, 1000, 4000, false, false, 44),
		"er-sparse":  gen.BuildErdosRenyi(sched, 2000, 2500, false, false, 45),
		"two-cycles": graph.FromEdgeList(sched, 7, cycle3, graph.BuildOptions{}),
		"dag":        graph.FromEdgeList(sched, 6, dag, graph.BuildOptions{}),
	}
}

// dirWeightedGraphs returns directed weighted fixtures for Bellman-Ford,
// whose dense rounds push over out-edges where a pull reads in-edges.
// rmat-dir-w is large enough that its rounds go dense. dag-neg keeps only
// RMAT edges from lower to higher ID, so it has no cycle, and shifts the
// weights to [-4, 5]; neg-cycle adds a negative 3-cycle reachable from 0.
func dirWeightedGraphs() map[string]*graph.CSR {
	dag := gen.WithRandomWeights(sched, gen.RMAT(sched, 10, 8, 47), 10, 47)
	forward := graph.NewEdgeList(dag.N, dag.Len(), true)
	for i := range dag.U {
		if dag.U[i] < dag.V[i] {
			forward.Add(dag.U[i], dag.V[i], dag.W[i]-5)
		}
	}
	cyc := gen.WithRandomWeights(sched, gen.ErdosRenyi(sched, 1000, 4000, 48), 9, 48)
	cyc.Add(0, 500, 1)
	cyc.Add(500, 501, -3)
	cyc.Add(501, 502, 1)
	cyc.Add(502, 500, 1)
	return map[string]*graph.CSR{
		"rmat-dir-w": gen.BuildRMAT(sched, 10, 8, false, true, 46),
		"er-dir-w":   gen.BuildErdosRenyi(sched, 1000, 4000, false, true, 46),
		"dag-neg":    graph.FromEdgeList(sched, forward.N, forward, graph.BuildOptions{}),
		"neg-cycle":  graph.FromEdgeList(sched, cyc.N, cyc, graph.BuildOptions{}),
	}
}
