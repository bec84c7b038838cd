package ligra

import (
	"runtime"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/atomics"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/prims"
)

// sched is the scheduler every test in this package runs on, at the
// hardware width so the parallel code paths stay covered. Tests that need
// another width build their own with parallel.New.
var sched = parallel.New(runtime.NumCPU())

func TestVertexSubsetBasics(t *testing.T) {
	s := Empty(10)
	if s.Size() != 0 || len(s.Sparse(sched)) != 0 {
		t.Fatal("Empty not empty")
	}
	s = Single(10, 3)
	if s.Size() != 1 || !s.Contains(3) || s.Contains(4) {
		t.Fatal("Single broken")
	}
	s = FromSparse(10, []uint32{1, 5, 9})
	d := s.Dense(sched)
	if !d[1] || !d[5] || !d[9] || d[0] {
		t.Fatal("Dense conversion broken")
	}
	flags := make([]bool, 10)
	flags[2], flags[7] = true, true
	s = FromDense(sched, flags, -1)
	if s.Size() != 2 {
		t.Fatalf("FromDense recount = %d", s.Size())
	}
	sp := s.Sparse(sched)
	slices.Sort(sp)
	if !slices.Equal(sp, []uint32{2, 7}) {
		t.Fatalf("Sparse conversion = %v", sp)
	}
	all := All(sched, 5)
	if all.Size() != 5 || !all.Contains(4) {
		t.Fatal("All broken")
	}
}

func TestVertexMapAndFilter(t *testing.T) {
	s := All(sched, 100)
	var count [100]uint32
	VertexMap(sched, s, func(v uint32) { atomics.FetchAndAdd32(&count[v], 1) })
	for v, c := range count {
		if c != 1 {
			t.Fatalf("vertex %d mapped %d times", v, c)
		}
	}
	// The paper's vertexFilter: pack the members, rewrap over the same
	// universe.
	f := FromSparse(s.N(), prims.Filter(sched, s.Sparse(sched), func(v uint32) bool { return v%10 == 0 }))
	if f.Size() != 10 {
		t.Fatalf("filter size = %d", f.Size())
	}
}

// bfsLevels runs a BFS with em under the given options and returns the
// level of each vertex (^0 if unreachable). Used to cross-check all edgeMap
// modes against each other.
func bfsLevels(g graph.Graph, src uint32, em edgeMapFunc, opt Opts) []uint32 {
	n := g.N()
	const inf = ^uint32(0)
	level := make([]uint32, n)
	visited := make([]uint32, n)
	for i := range level {
		level[i] = inf
	}
	level[src] = 0
	visited[src] = 1
	frontier := Single(n, src)
	round := uint32(0)
	for frontier.Size() > 0 {
		round++
		r := round
		frontier = em(sched, g, frontier,
			func(s, d uint32, w int32) bool {
				if atomics.TestAndSet(&visited[d]) {
					level[d] = r
					return true
				}
				return false
			},
			func(d uint32) bool { return atomics.Load32(&visited[d]) == 0 },
			opt)
	}
	return level
}

func TestEdgeMapModesAgree(t *testing.T) {
	graphs := map[string]graph.Graph{
		"rmat":  gen.BuildRMAT(sched, 10, 8, true, false, 5),
		"torus": gen.BuildTorus3D(sched, 7, false, 5),
		"er":    gen.BuildErdosRenyi(sched, 2000, 8000, true, false, 5),
	}
	for name, g := range graphs {
		base := bfsLevels(g, 0, edgeMapFlat, Opts{})             // flat sparse only
		blocked := bfsLevels(g, 0, EdgeMap, Opts{NoDense: true}) // blocked sparse only
		auto := bfsLevels(g, 0, EdgeMap, Opts{})                 // direction-optimized
		denseish := bfsLevels(g, 0, edgeMapDense, Opts{})        // dense pull only
		for v := range base {
			if blocked[v] != base[v] {
				t.Fatalf("%s: blocked level[%d] = %d want %d", name, v, blocked[v], base[v])
			}
			if auto[v] != base[v] {
				t.Fatalf("%s: auto level[%d] = %d want %d", name, v, auto[v], base[v])
			}
			if denseish[v] != base[v] {
				t.Fatalf("%s: dense level[%d] = %d want %d", name, v, denseish[v], base[v])
			}
		}
	}
}

func TestEdgeMapDirectedUsesInEdgesForDense(t *testing.T) {
	// Directed path 0->1->2->3; dense pull must still follow out-direction
	// semantics via in-edges.
	el := &graph.EdgeList{N: 4, U: []uint32{0, 1, 2}, V: []uint32{1, 2, 3}}
	g := graph.FromEdgeList(sched, 4, el, graph.BuildOptions{})
	lv := bfsLevels(g, 0, edgeMapDense, Opts{})
	want := []uint32{0, 1, 2, 3}
	if !slices.Equal(lv, want) {
		t.Fatalf("levels = %v", lv)
	}
}

func TestEdgeMapEmptyFrontier(t *testing.T) {
	g := gen.BuildTorus3D(sched, 3, false, 1)
	out := EdgeMap(sched, g, Empty(g.N()),
		func(s, d uint32, w int32) bool { return true },
		func(d uint32) bool { return true }, Opts{})
	if out.Size() != 0 {
		t.Fatal("empty frontier produced output")
	}
}

func TestEdgeMapNoOutput(t *testing.T) {
	g := gen.BuildTorus3D(sched, 3, false, 1)
	touched := make([]uint32, g.N())
	out := EdgeMap(sched, g, Single(g.N(), 0),
		func(s, d uint32, w int32) bool {
			atomics.FetchAndAdd32(&touched[d], 1)
			return true
		},
		func(d uint32) bool { return true },
		Opts{NoOutput: true, NoDense: true})
	if out.Size() != 0 {
		t.Fatal("NoOutput returned a subset")
	}
	sum := uint32(0)
	for _, c := range touched {
		sum += c
	}
	if sum != 6 {
		t.Fatalf("update applied %d times, want 6", sum)
	}
}

func TestEdgeMapWeightsArriveAtUpdate(t *testing.T) {
	el := &graph.EdgeList{N: 3, U: []uint32{0, 0}, V: []uint32{1, 2}, W: []int32{7, 9}}
	g := graph.FromEdgeList(sched, 3, el, graph.BuildOptions{})
	var w1, w2 int32
	EdgeMap(sched, g, Single(3, 0),
		func(s, d uint32, w int32) bool {
			if d == 1 {
				w1 = w
			} else {
				w2 = w
			}
			return false
		},
		func(d uint32) bool { return true }, Opts{NoDense: true})
	if w1 != 7 || w2 != 9 {
		t.Fatalf("weights %d %d", w1, w2)
	}
}

func TestEdgeMapCondSkips(t *testing.T) {
	g := gen.BuildTorus3D(sched, 4, false, 1)
	out := EdgeMap(sched, g, Single(g.N(), 0),
		func(s, d uint32, w int32) bool { return true },
		func(d uint32) bool { return false }, Opts{})
	if out.Size() != 0 {
		t.Fatal("cond=false still produced output")
	}
}

// TestEdgeMapBlockedHighDegreeSplit checks blocked ≡ flat ≡ dense ≡ forward
// on stars whose frontier degree sum sits on edgeMapBlocked's block
// boundaries (0, emBlockSize-1, emBlockSize, emBlockSize+1) or spans several
// blocks. From the centre one vertex is split across blocks; from the leaves
// each block holds many one-edge vertices, so a block boundary falls between
// them. With cond always true or nil every mode applies update once per
// frontier edge, so the call count catches a traversal that reads past a
// vertex's degree.
func TestEdgeMapBlockedHighDegreeSplit(t *testing.T) {
	always := func(uint32) bool { return true }
	modes := map[string]struct {
		em   edgeMapFunc
		cond Cond
		opt  Opts
	}{
		"flat":    {edgeMapFlat, always, Opts{}},
		"blocked": {EdgeMap, always, Opts{NoDense: true}},
		"dense":   {edgeMapDense, always, Opts{}},
		"forward": {edgeMapForward, nil, Opts{}},
	}
	for _, deg := range []int{0, emBlockSize - 1, emBlockSize, emBlockSize + 1, 3 * emBlockSize} {
		n := deg + 1
		g := graph.FromEdgeList(sched, n, gen.Star(n), graph.BuildOptions{Symmetrize: true})
		leaves := make([]uint32, deg)
		for i := range leaves {
			leaves[i] = uint32(i + 1)
		}
		for from, c := range map[string]struct{ frontier, want []uint32 }{
			"centre": {[]uint32{0}, leaves},
			"leaves": {leaves, []uint32{0}},
		} {
			if len(c.frontier) == 0 {
				continue
			}
			for mode, m := range modes {
				visited := make([]uint32, n)
				for _, v := range c.frontier {
					visited[v] = 1
				}
				var calls atomic.Int64
				out := m.em(sched, g, FromSparse(n, slices.Clone(c.frontier)),
					func(s, d uint32, w int32) bool {
						calls.Add(1)
						return atomics.TestAndSet(&visited[d])
					},
					m.cond, m.opt)
				got := slices.Clone(out.Sparse(sched))
				slices.Sort(got)
				if !slices.Equal(got, c.want) || calls.Load() != int64(deg) {
					t.Fatalf("degree sum %d from the %s, %s: reached %d vertices in %d updates, want %d in %d",
						deg, from, mode, len(got), calls.Load(), len(c.want), deg)
				}
			}
		}
	}
}

// TestEdgeMapDenseFrontierMatchesSparse feeds the same frontier to EdgeMap
// in dense-only and sparse-only representations, under both traversal
// directions. The dense representation exercises the fast path that
// computes the direction heuristic's degree sum from the flags without
// materializing the sparse form.
func TestEdgeMapDenseFrontierMatchesSparse(t *testing.T) {
	g := gen.BuildRMAT(sched, 10, 8, true, false, 7)
	n := g.N()
	members := []uint32{}
	flags := make([]bool, n)
	for v := 0; v < n; v += 3 {
		members = append(members, uint32(v))
		flags[v] = true
	}
	for _, m := range []struct {
		name string
		em   edgeMapFunc
		opt  Opts
	}{
		{"auto", EdgeMap, Opts{}},
		{"sparse", EdgeMap, Opts{NoDense: true}},
		{"dense", edgeMapDense, Opts{}},
	} {
		results := [][]uint32{}
		for _, frontier := range []VertexSubset{
			FromSparse(n, slices.Clone(members)),
			FromDense(sched, slices.Clone(flags), len(members)),
		} {
			out := m.em(sched, g, frontier,
				func(s, d uint32, w int32) bool { return true },
				func(d uint32) bool { return true }, m.opt)
			ids := slices.Clone(out.Sparse(sched))
			slices.Sort(ids)
			ids = slices.Compact(ids)
			results = append(results, ids)
		}
		if !slices.Equal(results[0], results[1]) {
			t.Fatalf("%s: dense frontier output (%d ids) differs from sparse (%d ids)",
				m.name, len(results[1]), len(results[0]))
		}
	}
}
