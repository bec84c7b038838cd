package ligra

import (
	"math"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/atomics"
	"repro/internal/compress"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/parallel"
)

// The dense-forward traversal is taken for a dense frontier when the call
// has no destination filter. These tests check it against the pull and the
// two sparse traversals with a Bellman-Ford-style update, and check that it
// reads only the frontier's out-edges.

// relaxModes are the traversals one filter-free relaxation can take. The
// pull needs a cond, so it gets one that is always true.
type relaxMode struct {
	name string
	em   edgeMapFunc
	cond Cond
	opt  Opts
}

var relaxModes = []relaxMode{
	{"forward", edgeMapForward, nil, Opts{}},
	{"pull", edgeMapDense, func(uint32) bool { return true }, Opts{}},
	{"blocked", EdgeMap, nil, Opts{NoDense: true}},
	{"flat", edgeMapFlat, nil, Opts{}},
	{"auto", EdgeMap, nil, Opts{}},
}

// relaxFixtures are weighted: symmetric RMAT and torus, directed RMAT (the
// forward push follows out-edges where the pull reads in-edges, the out-
// edges of the transpose), a compressed graph, and a directed overlay whose
// pull reads the merged transpose of its base and delta.
func relaxFixtures() map[string]graph.Graph {
	rmat := gen.BuildRMAT(sched, 10, 8, true, true, 31)
	rmatDir := gen.BuildRMAT(sched, 10, 8, false, true, 44)
	batch := gen.WithRandomWeights(sched, gen.ErdosRenyi(sched, rmatDir.N(), 2000, 45), gen.PaperWeight(rmatDir.N()), 45)
	overlay, _ := graph.ApplyEdges(sched, rmatDir, batch)
	return map[string]graph.Graph{
		"rmat":             rmat,
		"torus":            gen.BuildTorus3D(sched, 7, true, 31),
		"rmat-dir":         rmatDir,
		"rmat-compressed":  compress.FromCSR(sched, rmat, 16),
		"rmat-dir-overlay": overlay,
	}
}

// relaxRound runs one relaxation: every frontier edge (u, v) lowers next[v]
// to prev[u]+w with a priority-write, and a test-and-set admits each
// lowered destination once, as Bellman-Ford does. Sources read prev and
// destinations write a copy of it, so the result does not depend on the
// schedule. It returns the sorted output and the final distances.
func relaxRound(s *parallel.Scheduler, g graph.Graph, frontier VertexSubset, prev []int64, m relaxMode) ([]uint32, []int64, int) {
	next := slices.Clone(prev)
	flags := make([]uint32, g.N())
	out := m.em(s, g, frontier, func(u, v uint32, w int32) bool {
		if atomics.WriteMin64(&next[v], prev[u]+int64(w)) {
			return atomics.TestAndSet(&flags[v])
		}
		return false
	}, m.cond, m.opt)
	ids := slices.Clone(out.Sparse(s))
	slices.Sort(ids)
	return ids, next, out.Size()
}

func TestEdgeMapForwardMatchesPullAndSparse(t *testing.T) {
	for name, g := range relaxFixtures() {
		n := g.N()
		prev := make([]int64, n)
		flags := make([]bool, n)
		var members []uint32
		for v := range prev {
			prev[v] = int64(v*7919%1000) + 1
			if v%3 == 0 {
				prev[v] = math.MaxInt64 / 2 // unreached
			}
			if v%2 == 0 && v%3 != 0 {
				flags[v] = true
				members = append(members, uint32(v))
			}
		}
		// The reference, sequentially over out-edges; an overlay's over
		// the compacted graph.
		ref := g
		if ov, ok := g.(*graph.Overlay); ok {
			ref = ov.Compact(sched)
		}
		want := slices.Clone(prev)
		for _, u := range members {
			ref.OutNgh(u, func(v uint32, w int32) bool {
				want[v] = min(want[v], prev[u]+int64(w))
				return true
			})
		}
		var wantIDs []uint32
		for v := range want {
			if want[v] < prev[v] {
				wantIDs = append(wantIDs, uint32(v))
			}
		}
		for _, p := range []int{1, 2, runtime.NumCPU()} {
			s := parallel.New(p)
			for _, m := range relaxModes {
				for _, dense := range []bool{true, false} {
					frontier := FromSparse(n, slices.Clone(members))
					if dense {
						frontier = FromDense(s, slices.Clone(flags), len(members))
					}
					ids, next, size := relaxRound(s, g, frontier, prev, m)
					if !slices.Equal(ids, wantIDs) || size != len(wantIDs) {
						t.Fatalf("%s, p=%d, %s, dense frontier %v: output %d ids (size %d), want %d",
							name, p, m.name, dense, len(ids), size, len(wantIDs))
					}
					if !slices.Equal(next, want) {
						t.Fatalf("%s, p=%d, %s, dense frontier %v: final distances differ from the reference",
							name, p, m.name, dense)
					}
				}
			}
			s.Close()
		}
	}
}

// bellmanFordLoop runs Bellman-Ford from vertex 0 with every round in one
// mode: a single distance array, a priority-write and a test-and-set
// cleared by VertexMap after each round, as core.BellmanFord does.
func bellmanFordLoop(s *parallel.Scheduler, g graph.Graph, m relaxMode) []int64 {
	n := g.N()
	dist := make([]int64, n)
	flags := make([]uint32, n)
	for v := range dist {
		dist[v] = math.MaxInt64 / 2
	}
	dist[0] = 0
	update := func(u, v uint32, w int32) bool {
		if atomics.WriteMin64(&dist[v], atomic.LoadInt64(&dist[u])+int64(w)) {
			return atomics.TestAndSet(&flags[v])
		}
		return false
	}
	for frontier := Single(n, 0); frontier.Size() > 0; {
		frontier = m.em(s, g, frontier, update, m.cond, m.opt)
		VertexMap(s, frontier, func(v uint32) { atomics.Store32(&flags[v], 0) })
	}
	return dist
}

func TestEdgeMapForwardBellmanFordAgrees(t *testing.T) {
	for name, g := range relaxFixtures() {
		var base []int64
		for _, p := range []int{1, 2, runtime.NumCPU()} {
			s := parallel.New(p)
			for _, m := range relaxModes {
				got := bellmanFordLoop(s, g, m)
				if base == nil {
					base = got
				} else if !slices.Equal(got, base) {
					t.Fatalf("%s, p=%d, %s: distances differ from p=1 %s", name, p, m.name, relaxModes[0].name)
				}
			}
			s.Close()
		}
	}
}

// countingGraph counts the neighbours every traversal visits, its
// transpose's included, so a pull over in-edges is counted too.
type countingGraph struct {
	graph.Graph
	visits *atomic.Int64
}

func (g *countingGraph) Transpose() graph.Graph {
	return &countingGraph{Graph: g.Graph.Transpose(), visits: g.visits}
}

func (g *countingGraph) count(f func(u uint32, w int32) bool) func(u uint32, w int32) bool {
	return func(u uint32, w int32) bool {
		g.visits.Add(1)
		return f(u, w)
	}
}

func (g *countingGraph) OutNgh(v uint32, f func(u uint32, w int32) bool) {
	g.Graph.OutNgh(v, g.count(f))
}

func (g *countingGraph) OutRange(v uint32, lo, hi int, f func(u uint32, w int32) bool) {
	g.Graph.OutRange(v, lo, hi, g.count(f))
}

// TestEdgeMapForwardVisitsFrontierEdgesOnly pins the work bound: a
// filter-free EdgeMap over a dense frontier visits exactly the frontier's
// out-degree sum, not all m in-edges as a pull does.
func TestEdgeMapForwardVisitsFrontierEdgesOnly(t *testing.T) {
	const side = 64
	csr := graph.FromEdgeList(sched, side*side, gen.Grid2D(side), graph.BuildOptions{Symmetrize: true})
	n := csr.N()
	// The left half of every row: dense by Ligra's heuristic.
	flags := make([]bool, n)
	members, degSum := 0, 0
	reached := make([]bool, n)
	for v := range flags {
		if v%side < side/2 {
			flags[v] = true
			members++
			degSum += csr.OutDeg(uint32(v))
			csr.OutNgh(uint32(v), func(u uint32, _ int32) bool {
				reached[u] = true
				return true
			})
		}
	}
	g := &countingGraph{Graph: csr, visits: new(atomic.Int64)}
	visited := make([]uint32, n)
	out := EdgeMap(sched, g, FromDense(sched, flags, members),
		func(_, v uint32, _ int32) bool { return atomics.TestAndSet(&visited[v]) },
		nil, Opts{})
	if got := g.visits.Load(); got != int64(degSum) {
		t.Fatalf("visited %d neighbours, want the frontier's degree sum %d (m = %d)", got, degSum, g.M())
	}
	want := 0
	for v := range reached {
		if reached[v] {
			want++
			if !out.Contains(uint32(v)) {
				t.Fatalf("vertex %d has a frontier in-neighbour but is not in the output", v)
			}
		}
	}
	if out.Size() != want {
		t.Fatalf("output size %d, want %d", out.Size(), want)
	}
}
