package core

import (
	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/prims"
	"repro/internal/xrand"
)

// Connectivity computes connected components (Algorithm 6, Shun et al.):
// it runs LDD with parameter β, contracts each cluster to a single vertex,
// and recurses on the contracted graph until no edges remain, composing the
// labellings on the way back up. Runs in O(m) expected work and O(log³ n)
// depth w.h.p. on the TS-MT-RAM. The result maps each vertex to a component
// label in [0, n); two vertices get equal labels iff they are connected.
//
// g must be symmetric. beta in (0, 1); the paper fixes β = 0.2.
func Connectivity(s *parallel.Scheduler, g graph.Graph, beta float64, seed uint64) []uint32 {
	n := g.N()
	labels := LDD(s, g, beta, seed)
	k, renumber := NumClusters(s, labels)
	// Relabel every vertex into the contracted ID space.
	s.ForRange(n, 0, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			labels[v] = renumber[labels[v]]
		}
	})
	// Contract: one edge (cluster(u), cluster(v)) per cut edge; builder
	// dedups. Keep one direction and symmetrize to halve the sort.
	el := contractEdges(s, g, labels, k)
	if el.Len() == 0 {
		return labels
	}
	gc := graph.FromEdgeList(s, k, el, graph.BuildOptions{Symmetrize: true})
	sub := Connectivity(s, gc, beta, xrand.SplitMix64(seed))
	s.ForRange(n, 0, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			labels[v] = sub[labels[v]]
		}
	})
	return labels
}

// contractEdges lists the inter-cluster edges of g under the dense
// labelling, as (labels[v], labels[u]) with labels[u] > labels[v] so one
// direction per cut edge survives; the builder deduplicates. The cut edges
// are listed by graph.FilterEdges and renamed in place.
func contractEdges(s *parallel.Scheduler, g graph.Graph, labels []uint32, k int) *graph.EdgeList {
	el := graph.FilterEdges(s, g, false, func(v, u uint32) bool { return labels[u] > labels[v] })
	graph.RelabelEdgeList(s, el, labels)
	el.N = k
	return el
}

// ComponentCount returns the number of distinct labels and the size of the
// largest label class; used by the statistics suite (Tables 3, 8-13).
func ComponentCount(s *parallel.Scheduler, labels []uint32) (num int, largest int) {
	n := len(labels)
	if n == 0 {
		return 0, 0
	}
	ids, counts := prims.Histogram(s, labels, prims.BitsFor(uint64(n)))
	max := uint32(0)
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	return len(ids), int(max)
}
