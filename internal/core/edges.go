package core

import (
	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/prims"
)

// WEdge is an undirected weighted edge in algorithm outputs (MSF, maximal
// matching).
type WEdge struct {
	U, V uint32
	W    int32
}

// extractEdges lists each undirected edge of a symmetric graph exactly once
// (u < v), as parallel arrays. MSF and maximal matching run their edgelist
// phases over this representation; extracting only one direction per edge is
// the memory optimization the paper applies to make edgelist algorithms fit
// ("we can pack out the edges so that each undirected edge is only inspected
// once").
func extractEdges(s *parallel.Scheduler, g graph.Graph, weighted bool) (eu, ev []uint32, ew []int32) {
	n := g.N()
	counts := make([]int64, n)
	s.ForRange(n, 64, func(lo, hi int) {
		var src uint32
		var c int64
		count := func(u uint32, _ int32) bool {
			if u > src {
				c++
			}
			return true
		}
		for v := lo; v < hi; v++ {
			src, c = uint32(v), 0
			g.OutNgh(src, count)
			counts[v] = c
		}
	})
	offsets := make([]int64, n)
	total := prims.Scan(s, counts, offsets)
	eu = make([]uint32, total)
	ev = make([]uint32, total)
	if weighted {
		ew = make([]int32, total)
	}
	s.ForRange(n, 64, func(lo, hi int) {
		var src uint32
		var i int64
		fill := func(u uint32, w int32) bool {
			if u > src {
				eu[i] = src
				ev[i] = u
				if ew != nil {
					ew[i] = w
				}
				i++
			}
			return true
		}
		for v := lo; v < hi; v++ {
			src, i = uint32(v), offsets[v]
			g.OutNgh(src, fill)
		}
	})
	return eu, ev, ew
}
