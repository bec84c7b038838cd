package core

import (
	"repro/internal/atomics"
	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/prims"
)

// Bicc holds the implicit biconnectivity labelling of Algorithm 7: a vertex
// labelling plus the BFS forest, from which the biconnected-component label
// of any edge is answered in O(1) (the paper's 2n-space query structure —
// storing a label per edge explicitly would be prohibitive at scale).
type Bicc struct {
	// Parent is the spanning-forest parent of each vertex (roots point to
	// themselves; isolated vertices too).
	Parent []uint32
	// Level is the BFS level of each vertex in the forest.
	Level []uint32
	// Labels is the connectivity labelling of G with critical edges
	// removed; tree edges take the label of the endpoint farther from the
	// root.
	Labels []uint32
}

// EdgeLabel returns the biconnected-component label of edge (u, v): tree
// edges take the child's label; non-tree edges may take either endpoint's
// label (they agree).
func (b *Bicc) EdgeLabel(u, v uint32) uint32 {
	switch {
	case b.Parent[v] == u:
		return b.Labels[v]
	case b.Parent[u] == v:
		return b.Labels[u]
	case b.Level[u] > b.Level[v]:
		return b.Labels[u]
	default:
		return b.Labels[v]
	}
}

// Biconnectivity implements the Tarjan-Vishkin algorithm (Algorithm 7),
// which needs only some spanning forest and some connectivity labelling:
// SpanningForest builds a rooted BFS forest; leaffix and rootfix sweeps over
// it compute preorder numbers, subtree sizes, and the Low/High extrema of
// preorder numbers reachable through non-tree edges; tree edges to
// articulation points ("critical edges") are filtered out and union-find
// over the remaining edges of g produces the per-vertex labels of the query
// structure. The BFS and the sweeps take O(m) work and O(diam(G) log n)
// depth; the two union-find passes (the forest's roots, the final labels)
// give the same labels at any thread count in finite work (incrcc.go) but
// carry no depth bound.
//
// g must be symmetric.
func Biconnectivity(s *parallel.Scheduler, g graph.Graph) *Bicc {
	n := g.N()
	parent, level, roots := SpanningForest(s, g)

	// Children adjacency of the BFS forest, CSR-shaped, ordered by (parent,
	// child) for deterministic preorder numbers. Keys put the parent in the
	// low word: treeEdges is in child order, so a stable sort of the parent
	// bits alone gives (parent, child) order.
	treeEdges := prims.MapFilter(s, n,
		func(v int) bool { return parent[v] != uint32(v) && parent[v] != Inf },
		func(v int) uint32 { return uint32(v) })
	childKeys := make([]uint64, len(treeEdges))
	s.ForRange(len(treeEdges), 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			v := treeEdges[i]
			childKeys[i] = uint64(v)<<32 | uint64(parent[v])
		}
	})
	prims.RadixSortU64(s, childKeys, prims.BitsFor(uint64(n)))
	childArr := make([]uint32, len(childKeys))
	childSrc := make([]uint32, len(childKeys))
	s.ForRange(len(childKeys), 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			childArr[i] = uint32(childKeys[i] >> 32)
			childSrc[i] = uint32(childKeys[i])
		}
	})
	childOff := graph.FillOffsets(s, n, childSrc)
	children := func(v uint32) []uint32 { return childArr[childOff[v]:childOff[v+1]] }

	// Group vertices by BFS level for the leaffix/rootfix sweeps, the level
	// in the low word as above; all 32 bits, because a level may be Inf.
	levelKeys := make([]uint64, n)
	maxLevel := uint32(0)
	s.ForRange(n, 0, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			levelKeys[v] = uint64(v)<<32 | uint64(level[v])
		}
	})
	for v := 0; v < n; v++ {
		if level[v] != Inf && level[v] > maxLevel {
			maxLevel = level[v]
		}
	}
	prims.RadixSortU64(s, levelKeys, 32)
	levelStarts := prims.PackIndex(s, n, func(i int) bool {
		return i == 0 || uint32(levelKeys[i]) != uint32(levelKeys[i-1])
	})
	levelSlice := func(li int) []uint64 {
		end := n
		if li+1 < len(levelStarts) {
			end = int(levelStarts[li+1])
		}
		return levelKeys[levelStarts[li]:end]
	}
	numLevels := len(levelStarts)

	// Leaffix: subtree sizes, deepest level first.
	size := make([]uint32, n)
	for li := numLevels - 1; li >= 0; li-- {
		s.Poll()
		ls := levelSlice(li)
		s.ForRange(len(ls), 256, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				v := uint32(ls[i] >> 32)
				s := uint32(1)
				for _, c := range children(v) {
					s += size[c]
				}
				size[v] = s
			}
		})
	}

	// Rootfix: preorder numbers top-down. Roots get disjoint global bases so
	// cross-component preorder intervals never overlap.
	pn := make([]uint32, n)
	base := uint32(0)
	for _, r := range roots {
		pn[r] = base
		base += size[r]
	}
	for li := 0; li < numLevels; li++ {
		s.Poll()
		ls := levelSlice(li)
		s.ForRange(len(ls), 256, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				v := uint32(ls[i] >> 32)
				running := pn[v] + 1
				for _, c := range children(v) {
					pn[c] = running
					running += size[c]
				}
			}
		})
	}

	// Leaffix for Low/High: minimum and maximum preorder number reachable
	// from the subtree through non-tree edges (or the subtree itself).
	low := make([]uint32, n)
	high := make([]uint32, n)
	for li := numLevels - 1; li >= 0; li-- {
		s.Poll()
		ls := levelSlice(li)
		s.ForRange(len(ls), 64, func(lo, hi int) {
			var v, lv, hv uint32
			reach := func(u uint32, _ int32) bool {
				if parent[u] != v && parent[v] != u {
					if pn[u] < lv {
						lv = pn[u]
					}
					if pn[u] > hv {
						hv = pn[u]
					}
				}
				return true
			}
			for i := lo; i < hi; i++ {
				v = uint32(ls[i] >> 32)
				lv, hv = pn[v], pn[v]
				g.OutNgh(v, reach)
				for _, c := range children(v) {
					if low[c] < lv {
						lv = low[c]
					}
					if high[c] > hv {
						hv = high[c]
					}
				}
				low[v], high[v] = lv, hv
			}
		})
	}

	// Critical tree edges (u, parent(u)): the parent is an articulation
	// point for u's subtree when the subtree's non-tree reach stays inside
	// the parent's subtree interval.
	critical := make([]bool, n)
	s.ForRange(n, 0, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			p := parent[v]
			if p == uint32(v) || p == Inf {
				continue
			}
			critical[v] = pn[p] <= low[v] && high[v] < pn[p]+size[p]
		}
	})

	// Connectivity of G with critical edges removed yields the per-vertex
	// labels of the query structure.
	labels := unionFind(s, g, func(v, u uint32) bool { return !isCritical(critical, parent, v, u) })
	return &Bicc{Parent: parent, Level: level, Labels: labels}
}

// isCritical reports whether undirected edge (v, u) is a critical tree edge.
func isCritical(critical []bool, parent []uint32, v, u uint32) bool {
	return (parent[v] == u && critical[v]) || (parent[u] == v && critical[u])
}

// NumBiccLabels counts distinct edge labels under the query structure — the
// paper's "number of biconnected components" statistic.
func NumBiccLabels(s *parallel.Scheduler, g graph.Graph, b *Bicc) int {
	n := g.N()
	seen := make([]uint32, n) // labels are vertex labels in [0, n)
	s.ForRange(n, 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			seen[i] = 0
		}
	})
	s.ForRange(n, 64, func(lo, hi int) {
		var v uint32
		mark := func(u uint32, _ int32) bool {
			if u > v {
				atomics.Store32(&seen[b.EdgeLabel(v, u)], 1)
			}
			return true
		}
		for i := lo; i < hi; i++ {
			v = uint32(i)
			g.OutNgh(v, mark)
		}
	})
	return prims.Count(s, n, func(i int) bool { return seen[i] == 1 })
}
