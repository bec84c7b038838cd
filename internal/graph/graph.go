// Package graph provides the shared-memory graph representations of the
// benchmark: an uncompressed CSR form (this file) and, via the Graph
// interface, the Ligra+ parallel-byte compressed form implemented in
// internal/compress. Vertices are dense uint32 identifiers in [0, n); edge
// weights are int32 (unweighted graphs report weight 1).
//
// Undirected graphs are stored symmetrically (every edge appears in both
// directions), matching the paper's inputs ("-Sym" graphs); directed graphs
// additionally carry their transpose, whose out-edges are the in-edges that
// the dense direction of edgeMap and algorithms like SCC and BC traverse.
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
	// OutNgh calls f for each out-neighbor u of v, in adjacency order, with
	// the edge weight (1 if unweighted). Iteration stops early when f
	// returns false. f escapes through this interface call, so a loop over
	// vertices builds one f per ForRange block and reuses it, never one per
	// vertex.
	OutNgh(v uint32, f func(u uint32, w int32) bool)
	// OutRange iterates the out-neighbors of v with adjacency positions in
	// [lo, hi), as OutNgh does. It exists so edgeMapBlocked can split the
	// edges of a high-degree vertex across blocks.
	OutRange(v uint32, lo, hi int, f func(u uint32, w int32) bool)
	// DecodeOut returns the out-neighbors of v as a sorted slice. For CSR
	// graphs this aliases internal storage and buf is unused; compressed
	// graphs decode into buf (growing it as needed). Callers must not
	// modify the result.
	DecodeOut(v uint32, buf []uint32) []uint32
	// Transpose returns the graph with edge directions reversed, so its
	// out-edges are this graph's in-edges in sorted order with their
	// weights; symmetric graphs return themselves. It is the only way to
	// read in-edges. The view shares storage with the original.
	Transpose() Graph
}

// CSR is the uncompressed representation: compressed-sparse-row out-edges
// plus, for directed graphs, the transpose CSR of in-edges. Adjacency lists
// are sorted by neighbor ID and free of duplicates and self-loops unless the
// builder was told otherwise.
type CSR struct {
	n         int
	offsets   []int64
	edges     []uint32
	weights   []int32
	symmetric bool
	// t is the transpose of a directed graph, linked both ways (t.t == g).
	// It is nil for symmetric graphs and for the out-only graphs that
	// FromAdjacency and SplitCSR lay out.
	t *CSR
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

// Transposed returns g with edge directions reversed: g itself when
// symmetric, otherwise the linked transpose (nil for an out-only graph).
// SCC and BC run their backward searches over it with the forward code.
func (g *CSR) Transposed() *CSR {
	if g.symmetric {
		return g
	}
	return g.t
}

// Transpose implements the Graph interface over Transposed.
func (g *CSR) Transpose() Graph { return g.Transposed() }

var _ Graph = (*CSR)(nil)
