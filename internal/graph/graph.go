// Package graph provides the shared-memory graph representations of the
// benchmark: an uncompressed CSR/CSC form (this file) and, via the Graph
// interface, the Ligra+ parallel-byte compressed form implemented in
// internal/compress. Vertices are dense uint32 identifiers in [0, n); edge
// weights are int32 (unweighted graphs report weight 1).
//
// Undirected graphs are stored symmetrically (every edge appears in both
// directions), matching the paper's inputs ("-Sym" graphs); directed graphs
// additionally store the transpose (CSC) so that the dense direction of
// edgeMap and algorithms like SCC can traverse in-edges.
package graph

// Graph is the access interface shared by uncompressed (CSR) and compressed
// (parallel-byte) graphs. All of the benchmark's algorithms are written
// against it, which is how the paper runs one code base over both formats
// (Tables 4 and 5).
type Graph interface {
	// N returns the number of vertices.
	N() int
	// M returns the number of directed edges stored. For symmetric graphs
	// every undirected edge counts twice, as in the paper's edge counts.
	M() int
	// Weighted reports whether edges carry weights.
	Weighted() bool
	// Symmetric reports whether the graph is stored symmetrically (in-edges
	// and out-edges coincide).
	Symmetric() bool
	// OutDeg returns the out-degree of v.
	OutDeg(v uint32) int
	// InDeg returns the in-degree of v (equal to OutDeg for symmetric graphs).
	InDeg(v uint32) int
	// OutNgh calls f for each out-neighbor u of v, in adjacency order, with
	// the edge weight (1 if unweighted). Iteration stops early when f
	// returns false. f escapes through this interface call, so a loop over
	// vertices builds one f per ForRange block and reuses it, never one per
	// vertex.
	OutNgh(v uint32, f func(u uint32, w int32) bool)
	// InNgh is OutNgh over in-edges.
	InNgh(v uint32, f func(u uint32, w int32) bool)
	// OutRange iterates the out-neighbors of v with adjacency positions in
	// [lo, hi), as OutNgh does. It exists so edgeMapBlocked can split the
	// edges of a high-degree vertex across blocks.
	OutRange(v uint32, lo, hi int, f func(u uint32, w int32) bool)
	// DecodeOut returns the out-neighbors of v as a sorted slice. For CSR
	// graphs this aliases internal storage and buf is unused; compressed
	// graphs decode into buf (growing it as needed). Callers must not
	// modify the result.
	DecodeOut(v uint32, buf []uint32) []uint32
	// Transpose returns the graph with edge directions reversed; symmetric
	// graphs return themselves. The view shares storage with the original.
	Transpose() Graph
}

// CSR is the uncompressed representation: compressed-sparse-row out-edges
// plus, for directed graphs, compressed-sparse-column in-edges. Adjacency
// lists are sorted by neighbor ID and free of duplicates and self-loops
// unless the builder was told otherwise.
type CSR struct {
	n         int
	offsets   []int64
	edges     []uint32
	weights   []int32
	inOffsets []int64
	inEdges   []uint32
	inWeights []int32
	symmetric bool
}

// N returns the number of vertices.
func (g *CSR) N() int { return g.n }

// M returns the number of directed edges stored.
func (g *CSR) M() int { return len(g.edges) }

// Weighted reports whether the graph carries edge weights.
func (g *CSR) Weighted() bool { return g.weights != nil }

// Symmetric reports whether the graph is stored symmetrically.
func (g *CSR) Symmetric() bool { return g.symmetric }

// OutDeg returns the out-degree of v.
func (g *CSR) OutDeg(v uint32) int { return int(g.offsets[v+1] - g.offsets[v]) }

// InDeg returns the in-degree of v.
func (g *CSR) InDeg(v uint32) int {
	if g.symmetric {
		return g.OutDeg(v)
	}
	return int(g.inOffsets[v+1] - g.inOffsets[v])
}

// OutNghSlice returns v's out-neighbor IDs, aliasing internal storage.
func (g *CSR) OutNghSlice(v uint32) []uint32 {
	return g.edges[g.offsets[v]:g.offsets[v+1]]
}

// OutWeightSlice returns v's out-edge weights aligned with OutNghSlice, or
// nil for unweighted graphs.
func (g *CSR) OutWeightSlice(v uint32) []int32 {
	if g.weights == nil {
		return nil
	}
	return g.weights[g.offsets[v]:g.offsets[v+1]]
}

// InNghSlice returns v's in-neighbor IDs, aliasing internal storage.
func (g *CSR) InNghSlice(v uint32) []uint32 {
	if g.symmetric {
		return g.OutNghSlice(v)
	}
	return g.inEdges[g.inOffsets[v]:g.inOffsets[v+1]]
}

// InWeightSlice returns v's in-edge weights aligned with InNghSlice.
func (g *CSR) InWeightSlice(v uint32) []int32 {
	if g.symmetric {
		return g.OutWeightSlice(v)
	}
	if g.inWeights == nil {
		return nil
	}
	return g.inWeights[g.inOffsets[v]:g.inOffsets[v+1]]
}

// OutNgh calls f for each out-neighbor of v until f returns false.
func (g *CSR) OutNgh(v uint32, f func(u uint32, w int32) bool) {
	lo, hi := g.offsets[v], g.offsets[v+1]
	if g.weights == nil {
		for i := lo; i < hi; i++ {
			if !f(g.edges[i], 1) {
				return
			}
		}
		return
	}
	for i := lo; i < hi; i++ {
		if !f(g.edges[i], g.weights[i]) {
			return
		}
	}
}

// InNgh calls f for each in-neighbor of v until f returns false.
func (g *CSR) InNgh(v uint32, f func(u uint32, w int32) bool) {
	if g.symmetric {
		g.OutNgh(v, f)
		return
	}
	lo, hi := g.inOffsets[v], g.inOffsets[v+1]
	if g.inWeights == nil {
		for i := lo; i < hi; i++ {
			if !f(g.inEdges[i], 1) {
				return
			}
		}
		return
	}
	for i := lo; i < hi; i++ {
		if !f(g.inEdges[i], g.inWeights[i]) {
			return
		}
	}
}

// OutRange iterates out-neighbors at adjacency positions [lo, hi).
func (g *CSR) OutRange(v uint32, lo, hi int, f func(u uint32, w int32) bool) {
	base := g.offsets[v]
	if g.weights == nil {
		for i := base + int64(lo); i < base+int64(hi); i++ {
			if !f(g.edges[i], 1) {
				return
			}
		}
		return
	}
	for i := base + int64(lo); i < base+int64(hi); i++ {
		if !f(g.edges[i], g.weights[i]) {
			return
		}
	}
}

// DecodeOut returns v's sorted out-neighbors (aliasing internal storage).
func (g *CSR) DecodeOut(v uint32, _ []uint32) []uint32 {
	return g.OutNghSlice(v)
}

// MaxDegree returns the maximum out-degree (Δ in the paper).
func (g *CSR) MaxDegree() int {
	max := 0
	for v := 0; v < g.n; v++ {
		if d := g.OutDeg(uint32(v)); d > max {
			max = d
		}
	}
	return max
}

// Transposed returns a view of g with in- and out-edges swapped. For
// symmetric graphs it returns g itself. SCC uses this to run the backward
// reachability search with the same code as the forward one.
func (g *CSR) Transposed() *CSR {
	if g.symmetric {
		return g
	}
	return &CSR{
		n:         g.n,
		offsets:   g.inOffsets,
		edges:     g.inEdges,
		weights:   g.inWeights,
		inOffsets: g.offsets,
		inEdges:   g.edges,
		inWeights: g.weights,
		symmetric: false,
	}
}

// Transpose implements the Graph interface over Transposed.
func (g *CSR) Transpose() Graph { return g.Transposed() }

// Degrees returns the out-degree of every vertex.
func (g *CSR) Degrees() []int64 {
	d := make([]int64, g.n)
	for v := 0; v < g.n; v++ {
		d[v] = g.offsets[v+1] - g.offsets[v]
	}
	return d
}

var _ Graph = (*CSR)(nil)
