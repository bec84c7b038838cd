package gen

import (
	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/xrand"
)

// BarabasiAlbert generates a preferential-attachment graph: each new vertex
// attaches k edges to endpoints sampled proportionally to degree (via the
// standard edge-endpoint-array trick, O(m) sequential generation). The
// result has a power-law degree tail like the paper's social networks but
// with a guaranteed single connected component, which makes it a useful
// contrast to RMAT in tests. Callers want k >= 1 and n >= k+1 (the first
// k+1 vertices seed the process); gbbs.Preferential enforces both.
func BarabasiAlbert(n, k int, seed uint64) *graph.EdgeList {
	el := graph.NewEdgeList(n, n*k, false)
	// endpoints flattens every generated edge; sampling a uniform element
	// of it is degree-proportional sampling.
	endpoints := make([]uint32, 0, 2*n*k)
	draw := uint64(0)
	for v := 1; v < n; v++ {
		edges := k
		if v < k {
			edges = v
		}
		for e := 0; e < edges; e++ {
			var u uint32
			if len(endpoints) == 0 {
				u = 0
			} else {
				u = endpoints[xrand.Uniform(seed, draw, uint64(len(endpoints)))]
				draw++
			}
			el.Add(uint32(v), u, 1)
			endpoints = append(endpoints, uint32(v), u)
		}
	}
	return el
}

// WattsStrogatz generates a small-world graph: a ring lattice where each
// vertex connects to its k nearest clockwise neighbors, with each edge
// rewired to a uniform random endpoint with probability p. Deterministic in
// the seed and generated in parallel on scheduler s. gbbs.SmallWorld
// raises k to at least 1.
func WattsStrogatz(s *parallel.Scheduler, n, k int, p float64, seed uint64) *graph.EdgeList {
	el := &graph.EdgeList{N: n}
	el.U = make([]uint32, n*k)
	el.V = make([]uint32, n*k)
	s.ForRange(n, 0, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			for j := 1; j <= k; j++ {
				i := v*k + j - 1
				el.U[i] = uint32(v)
				if xrand.Float64(seed, uint64(i)) < p {
					el.V[i] = uint32(xrand.Uniform(seed^0x77a7757, uint64(i), uint64(n)))
				} else {
					el.V[i] = uint32((v + j) % n)
				}
			}
		}
	})
	return el
}

// BuildBarabasiAlbert generates and builds a preferential-attachment graph
// on scheduler s.
func BuildBarabasiAlbert(s *parallel.Scheduler, n, k int, weighted bool, seed uint64) *graph.CSR {
	el := BarabasiAlbert(n, k, seed)
	if weighted {
		WithRandomWeights(s, el, PaperWeight(n), seed)
	}
	return graph.FromEdgeList(s, el.N, el, graph.BuildOptions{Symmetrize: true})
}

// BuildWattsStrogatz generates and builds a small-world graph on scheduler
// s.
func BuildWattsStrogatz(s *parallel.Scheduler, n, k int, p float64, weighted bool, seed uint64) *graph.CSR {
	el := WattsStrogatz(s, n, k, p, seed)
	if weighted {
		WithRandomWeights(s, el, PaperWeight(n), seed)
	}
	return graph.FromEdgeList(s, n, el, graph.BuildOptions{Symmetrize: true})
}
