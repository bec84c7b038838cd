package main

import (
	"fmt"
	"math"
	"slices"
	"time"

	"repro/gbbs"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/seqref"
)

// oracle holds what the sequential references computed on one workload
// graph: the answers the parallel results are checked against, and the
// references' own median running times, the base of t1_over_seq.
type oracle struct {
	seqMS map[string]float64 // per oracle problem: median sequential time
}

// timeSeq runs f repeatedly — at least three times, then until fifteen
// runs or 300 ms are spent; the second-long sequential triangle count gets
// its three — and returns the median duration in milliseconds.
func timeSeq(f func()) float64 {
	var ms []float64
	var spent time.Duration
	for i := 0; i < 3 || (i < 15 && spent < 300*time.Millisecond); i++ {
		start := time.Now()
		f()
		d := time.Since(start)
		spent += d
		ms = append(ms, float64(d)/1e6)
	}
	return median(ms)
}

// undirectedEdges lists each undirected edge of a symmetric graph once.
func undirectedEdges(g graph.Graph) (eu, ev []uint32, ew []int32) {
	for v := 0; v < g.N(); v++ {
		g.OutNgh(uint32(v), func(u uint32, w int32) bool {
			if u > uint32(v) {
				eu, ev, ew = append(eu, uint32(v)), append(ev, u), append(ew, w)
			}
			return true
		})
	}
	return
}

// checkSuite verifies one result of every suite problem against the
// sequential reference or the problem's validity predicate, and times the
// references. results maps problem name to a result whose Value is intact;
// sym is the symmetric weighted graph, dir the directed one (nil when scc is
// not run). It returns the oracle and one error per wrong answer.
func checkSuite(s *parallel.Scheduler, sym, dir graph.Graph, src uint32, results map[string]gbbs.Result) (*oracle, []error) {
	o := &oracle{seqMS: make(map[string]float64)}
	var errs []error
	bad := func(name, format string, args ...any) {
		errs = append(errs, fmt.Errorf("%s: %s", name, fmt.Sprintf(format, args...)))
	}
	value := func(name string) (any, bool) {
		r, ok := results[name]
		return r.Value, ok
	}

	if v, ok := value("bfs"); ok {
		var want []uint32
		o.seqMS["bfs"] = timeSeq(func() { want = seqref.BFS(sym, src) })
		if got, _ := v.([]uint32); !slices.Equal(got, want) {
			bad("bfs", "distances differ from the sequential BFS")
		}
	}
	var dijkstra []int64
	if v, ok := value("wbfs"); ok {
		dijkstra = seqref.Dijkstra(sym, src)
		got, _ := v.([]uint32)
		if len(got) != len(dijkstra) {
			bad("wbfs", "got %d distances, want %d", len(got), len(dijkstra))
		} else {
			for i, d := range dijkstra {
				if (d == math.MaxInt64) != (got[i] == gbbs.Inf) || (d != math.MaxInt64 && int64(got[i]) != d) {
					bad("wbfs", "distance of vertex %d is %d, Dijkstra says %d", i, got[i], d)
					break
				}
			}
		}
	}
	if v, ok := value("bellmanford"); ok {
		var want []int64
		o.seqMS["bellmanford"] = timeSeq(func() { want, _ = seqref.BellmanFord(sym, src) })
		if got, _ := v.([]int64); !slices.Equal(got, want) {
			bad("bellmanford", "distances differ from the sequential Bellman-Ford")
		}
	}
	if v, ok := value("bc"); ok {
		var want []float64
		o.seqMS["bc"] = timeSeq(func() { want = seqref.BC(sym, src) })
		got, _ := v.([]float64)
		if len(got) != len(want) {
			bad("bc", "got %d scores, want %d", len(got), len(want))
		} else {
			for i := range want {
				if math.Abs(got[i]-want[i]) > 1e-6*math.Max(1, math.Abs(want[i])) {
					bad("bc", "dependency of vertex %d is %g, Brandes says %g", i, got[i], want[i])
					break
				}
			}
		}
	}
	if v, ok := value("ldd"); ok {
		// No oracle: a decomposition is valid when every label names a vertex
		// that leads its own cluster.
		got, _ := v.([]uint32)
		for i, l := range got {
			if int(l) >= len(got) || got[l] != l {
				bad("ldd", "vertex %d has label %d, which is not a cluster centre", i, l)
				break
			}
		}
		if len(got) != sym.N() {
			bad("ldd", "got %d labels, want %d", len(got), sym.N())
		}
	}
	if v, ok := value("cc"); ok {
		var want []uint32
		o.seqMS["cc"] = timeSeq(func() { want = seqref.Components(sym) })
		if got, _ := v.([]uint32); len(got) != len(want) || !seqref.SamePartition(got, want) {
			bad("cc", "components differ from the sequential union-find")
		}
	}
	if v, ok := value("bicc"); ok {
		got, _ := v.(*gbbs.Bicc)
		want := make(map[uint32]struct{})
		for _, l := range seqref.BCC(sym) {
			want[l] = struct{}{}
		}
		if got == nil {
			bad("bicc", "no query structure returned")
		} else if n := core.NumBiccLabels(s, sym, got); n != len(want) {
			bad("bicc", "%d biconnected components, Hopcroft-Tarjan says %d", n, len(want))
		}
	}
	if v, ok := value("scc"); ok && dir != nil {
		got, _ := v.([]uint32)
		if want := seqref.SCC(dir); len(got) != len(want) || !seqref.SamePartition(got, want) {
			bad("scc", "components differ from the sequential Tarjan")
		}
	}
	if v, ok := value("msf"); ok {
		eu, ev, ew := undirectedEdges(sym)
		var wantW int64
		var wantN int
		o.seqMS["msf"] = timeSeq(func() { wantW, wantN = seqref.Kruskal(sym.N(), eu, ev, ew) })
		got, _ := v.([]gbbs.WEdge)
		var gotW int64
		for _, e := range got {
			gotW += int64(e.W)
		}
		if gotW != wantW || len(got) != wantN {
			bad("msf", "forest has %d edges of weight %d, Kruskal says %d of weight %d", len(got), gotW, wantN, wantW)
		}
	}
	if v, ok := value("mis"); ok {
		got, _ := v.([]bool)
		if err := checkMIS(sym, got); err != nil {
			bad("mis", "%v", err)
		}
	}
	if v, ok := value("mm"); ok {
		got, _ := v.([]gbbs.WEdge)
		if !core.MatchingIsValid(sym, got) || !core.MatchingIsMaximal(s, sym, got) {
			bad("mm", "not a maximal matching")
		}
	}
	if v, ok := value("coloring"); ok {
		got, _ := v.([]uint32)
		if len(got) != sym.N() || !core.ValidColoring(s, sym, got) {
			bad("coloring", "not a proper colouring")
		}
	}
	if v, ok := value("kcore"); ok {
		var want []uint32
		o.seqMS["kcore"] = timeSeq(func() { want = seqref.Coreness(sym) })
		if got, _ := v.([]uint32); !slices.Equal(got, want) {
			bad("kcore", "coreness differs from the sequential peeling")
		}
	}
	if v, ok := value("setcover"); ok {
		got, _ := v.([]uint32)
		if !core.CoverIsValid(s, sym, got) {
			bad("setcover", "cover leaves a vertex uncovered")
		}
	}
	if v, ok := value("tc"); ok {
		var want int64
		o.seqMS["tc"] = timeSeq(func() { want = seqref.Triangles(sym) })
		if got, _ := v.(int64); got != want {
			bad("tc", "%d triangles, sequential count says %d", got, want)
		}
	}
	return o, errs
}

// checkMIS reports whether in is an independent set no vertex can join.
func checkMIS(g graph.Graph, in []bool) error {
	if len(in) != g.N() {
		return fmt.Errorf("got %d flags, want %d", len(in), g.N())
	}
	for v := 0; v < g.N(); v++ {
		covered := false
		g.OutNgh(uint32(v), func(u uint32, _ int32) bool {
			covered = covered || in[u]
			return !covered
		})
		if in[v] && covered {
			return fmt.Errorf("vertex %d and a neighbour are both in the set", v)
		}
		if !in[v] && !covered {
			return fmt.Errorf("vertex %d could join the set", v)
		}
	}
	return nil
}

// canonicalLabels reports whether a connectivity labelling maps every vertex
// to the minimum vertex id of its component, which is what incrcc promises.
func canonicalLabels(labels []uint32) bool {
	for v, l := range labels {
		if int(l) > v || int(l) >= len(labels) || labels[l] != l {
			return false
		}
	}
	return true
}
