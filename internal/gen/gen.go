// Package gen generates the synthetic graph families the reproduction uses
// in place of the paper's inputs (see DESIGN.md §1): RMAT power-law graphs
// stand in for the social networks and web crawls (LiveJournal, com-Orkut,
// Twitter, ClueWeb, Hyperlink), and 3-dimensional tori reproduce the paper's
// high-diameter 3D-Torus family (§6, Figure 1). All generators are
// deterministic in their seed and independent of the scheduler's thread
// count; parallel generators take an explicit *parallel.Scheduler so a
// gbbs.Engine can generate inputs on its own thread budget.
package gen

import (
	"math"

	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/xrand"
)

// Torus3D returns one directed edge per dimension per vertex of a
// side×side×side 3-torus (wrap-around); building with Symmetrize yields the
// paper's 6-regular 3D-Torus.
func Torus3D(s *parallel.Scheduler, side int) *graph.EdgeList {
	n := side * side * side
	el := &graph.EdgeList{N: n}
	el.U = make([]uint32, 3*n)
	el.V = make([]uint32, 3*n)
	s.ForRange(n, 0, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			x := v % side
			y := (v / side) % side
			z := v / (side * side)
			xn := z*side*side + y*side + (x+1)%side
			yn := z*side*side + ((y+1)%side)*side + x
			zn := ((z+1)%side)*side*side + y*side + x
			el.U[3*v], el.V[3*v] = uint32(v), uint32(xn)
			el.U[3*v+1], el.V[3*v+1] = uint32(v), uint32(yn)
			el.U[3*v+2], el.V[3*v+2] = uint32(v), uint32(zn)
		}
	})
	return el
}

// RMAT returns m = n*edgeFactor directed edges over n = 2^scale vertices
// drawn from the R-MAT distribution with the standard (0.57, 0.19, 0.19,
// 0.05) quadrant probabilities, which produces the skewed power-law degree
// distributions of social networks and web graphs.
func RMAT(s *parallel.Scheduler, scale, edgeFactor int, seed uint64) *graph.EdgeList {
	n := 1 << uint(scale)
	m := n * edgeFactor
	el := &graph.EdgeList{N: n}
	el.U = make([]uint32, m)
	el.V = make([]uint32, m)
	const a, b, c = 0.57, 0.19, 0.19
	s.ForRange(m, 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			var u, v uint32
			for l := 0; l < scale; l++ {
				r := xrand.Float64(seed, uint64(i)*uint64(scale)+uint64(l))
				switch {
				case r < a:
					// upper-left quadrant: both bits 0
				case r < a+b:
					v |= 1 << uint(l)
				case r < a+b+c:
					u |= 1 << uint(l)
				default:
					u |= 1 << uint(l)
					v |= 1 << uint(l)
				}
			}
			el.U[i] = u
			el.V[i] = v
		}
	})
	return el
}

// ErdosRenyi returns m uniformly random directed edges over n vertices
// (multi-edges and self-loops possible; the builder removes them).
func ErdosRenyi(s *parallel.Scheduler, n, m int, seed uint64) *graph.EdgeList {
	el := &graph.EdgeList{N: n}
	el.U = make([]uint32, m)
	el.V = make([]uint32, m)
	s.ForRange(m, 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			el.U[i] = uint32(xrand.Uniform(seed, 2*uint64(i), uint64(n)))
			el.V[i] = uint32(xrand.Uniform(seed, 2*uint64(i)+1, uint64(n)))
		}
	})
	return el
}

// Grid2D returns the edges of a side×side grid (no wrap-around), one
// direction only.
func Grid2D(side int) *graph.EdgeList {
	n := side * side
	el := graph.NewEdgeList(n, 2*n, false)
	for v := 0; v < n; v++ {
		x, y := v%side, v/side
		if x+1 < side {
			el.Add(uint32(v), uint32(v+1), 1)
		}
		if y+1 < side {
			el.Add(uint32(v), uint32(v+side), 1)
		}
	}
	return el
}

// Path returns the n-1 edges of a path over n vertices.
func Path(n int) *graph.EdgeList {
	el := graph.NewEdgeList(n, max(n-1, 0), false)
	for v := 0; v+1 < n; v++ {
		el.Add(uint32(v), uint32(v+1), 1)
	}
	return el
}

// Cycle returns the n edges of a cycle over n vertices.
func Cycle(n int) *graph.EdgeList {
	el := graph.NewEdgeList(n, n, false)
	for v := 0; v < n; v++ {
		el.Add(uint32(v), uint32((v+1)%n), 1)
	}
	return el
}

// Star returns n-1 edges from vertex 0 to every other vertex.
func Star(n int) *graph.EdgeList {
	el := graph.NewEdgeList(n, max(n-1, 0), false)
	for v := 1; v < n; v++ {
		el.Add(0, uint32(v), 1)
	}
	return el
}

// Complete returns all n(n-1)/2 edges of the complete graph (one direction).
func Complete(n int) *graph.EdgeList {
	el := graph.NewEdgeList(n, n*(n-1)/2, false)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			el.Add(uint32(u), uint32(v), 1)
		}
	}
	return el
}

// BinaryTree returns the edges of a complete binary tree over n vertices
// (parent i has children 2i+1, 2i+2).
func BinaryTree(n int) *graph.EdgeList {
	el := graph.NewEdgeList(n, max(n-1, 0), false)
	for v := 1; v < n; v++ {
		el.Add(uint32((v-1)/2), uint32(v), 1)
	}
	return el
}

// WithRandomWeights attaches uniform random integer weights in [1, maxW] to
// el and returns it. The paper draws weights uniformly from [1, log n).
func WithRandomWeights(s *parallel.Scheduler, el *graph.EdgeList, maxW int32, seed uint64) *graph.EdgeList {
	if maxW < 1 {
		maxW = 1
	}
	m := el.Len()
	el.W = make([]int32, m)
	s.ForRange(m, 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			el.W[i] = 1 + int32(xrand.Uniform(seed^0xabcdef, uint64(i), uint64(maxW)))
		}
	})
	return el
}

// PaperWeight returns the paper's weight cap for an n-vertex graph: weights
// are drawn uniformly at random from [1, log n).
func PaperWeight(n int) int32 {
	w := int32(math.Log2(float64(n+2))) - 1
	if w < 1 {
		w = 1
	}
	return w
}

// BuildRMAT generates and builds an RMAT graph on scheduler s. symmetric
// selects the "-Sym" (symmetrized) variant; weighted attaches paper-style
// weights.
func BuildRMAT(s *parallel.Scheduler, scale, edgeFactor int, symmetric, weighted bool, seed uint64) *graph.CSR {
	el := RMAT(s, scale, edgeFactor, seed)
	if weighted {
		WithRandomWeights(s, el, PaperWeight(el.N), seed)
	}
	return graph.FromEdgeList(s, el.N, el, graph.BuildOptions{Symmetrize: symmetric})
}

// BuildTorus3D generates and builds the symmetric 3D torus on side^3
// vertices; weighted attaches paper-style weights.
func BuildTorus3D(s *parallel.Scheduler, side int, weighted bool, seed uint64) *graph.CSR {
	el := Torus3D(s, side)
	if weighted {
		WithRandomWeights(s, el, PaperWeight(el.N), seed)
	}
	return graph.FromEdgeList(s, el.N, el, graph.BuildOptions{Symmetrize: true})
}

// BuildErdosRenyi generates and builds a uniform random graph.
func BuildErdosRenyi(s *parallel.Scheduler, n, m int, symmetric, weighted bool, seed uint64) *graph.CSR {
	el := ErdosRenyi(s, n, m, seed)
	if weighted {
		WithRandomWeights(s, el, PaperWeight(n), seed)
	}
	return graph.FromEdgeList(s, n, el, graph.BuildOptions{Symmetrize: symmetric})
}
