package core

import (
	"repro/internal/graph"
	"repro/internal/parallel"
)

// WEdge is an undirected weighted edge in algorithm outputs (MSF, maximal
// matching).
type WEdge struct {
	U, V uint32
	W    int32
}

// extractEdges lists each undirected edge of a symmetric graph exactly once,
// as (v, u) with v < u, in parallel arrays in vertex and adjacency order:
// graph.FilterEdges writes them straight into the columns. MSF and maximal
// matching run their edgelist phases over this representation. With
// weighted false no weight array is built.
func extractEdges(s *parallel.Scheduler, g graph.Graph, weighted bool) (eu, ev []uint32, ew []int32) {
	el := graph.FilterEdges(s, g, weighted, func(v, u uint32) bool { return u > v })
	return el.U, el.V, el.W
}
