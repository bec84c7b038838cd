package core

import (
	"runtime"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/seqref"
)

// The paper stresses that its randomized algorithms are internally
// deterministic: for a fixed seed the outputs must not depend on the
// schedule. These tests re-run each algorithm under 1, 2 and all workers
// and require identical (or partition-identical) outputs.

// withWorkers runs f on a fresh scheduler of width p.
func withWorkers(p int, f func(s *parallel.Scheduler)) {
	s := parallel.New(p)
	defer s.Close()
	f(s)
}

func workerCounts() []int { return []int{1, 2, runtime.NumCPU()} }

func TestDeterminismAcrossWorkerCounts(t *testing.T) {
	g := symGraphs()["rmat"]
	wg := symWeightedGraphs()["rmat-w"]
	dg := dirGraphs()["rmat-dir"]
	dwg := dirWeightedGraphs()

	type result struct {
		bfs      []uint32
		wbfs     []uint32
		bf       [][]int64
		bfNeg    []bool
		coreness []uint32
		colors   []uint32
		mis      []bool
		msfW     int64
		mmLen    int
		ccPart   []uint32
		sccPart  []uint32
		tc       int64
		cover    []uint32
	}
	collect := func(s *parallel.Scheduler) result {
		var r result
		r.bfs = BFS(s, g, 0)
		r.wbfs = WeightedBFS(s, wg, 0)
		for _, bg := range []*graph.CSR{wg, dwg["rmat-dir-w"], dwg["neg-cycle"]} {
			dist, neg := BellmanFord(s, bg, 0)
			r.bf = append(r.bf, dist)
			r.bfNeg = append(r.bfNeg, neg)
		}
		r.coreness, _ = KCore(s, g)
		r.colors = Coloring(s, g, 3)
		r.mis = MIS(s, g, 3)
		_, r.msfW = MSF(s, wg)
		r.mmLen = len(MaximalMatching(s, g, 3))
		r.ccPart = Connectivity(s, g, 0.2, 3)
		r.sccPart = SCC(s, dg, 3, SCCOpts{Beta: 2.0, TrimRounds: 3})
		r.tc = TriangleCount(s, g)
		r.cover = ApproxSetCover(s, g, 0.01, 3)
		if !CoverIsValid(s, g, r.cover) {
			t.Fatalf("p=%d: invalid set cover", s.Workers())
		}
		slices.Sort(r.cover)
		return r
	}
	var base result
	withWorkers(1, func(s *parallel.Scheduler) { base = collect(s) })
	for _, p := range workerCounts()[1:] {
		var got result
		withWorkers(p, func(s *parallel.Scheduler) { got = collect(s) })
		for v := range base.bfs {
			if got.bfs[v] != base.bfs[v] {
				t.Fatalf("p=%d: BFS differs at %d", p, v)
			}
			if got.wbfs[v] != base.wbfs[v] {
				t.Fatalf("p=%d: wBFS differs at %d", p, v)
			}
			if got.coreness[v] != base.coreness[v] {
				t.Fatalf("p=%d: coreness differs at %d", p, v)
			}
			if got.colors[v] != base.colors[v] {
				t.Fatalf("p=%d: coloring differs at %d", p, v)
			}
			if got.mis[v] != base.mis[v] {
				t.Fatalf("p=%d: MIS differs at %d", p, v)
			}
		}
		for i := range base.bf {
			if !slices.Equal(got.bf[i], base.bf[i]) || got.bfNeg[i] != base.bfNeg[i] {
				t.Fatalf("p=%d: Bellman-Ford differs on graph %d (negative cycle %v vs %v)",
					p, i, got.bfNeg[i], base.bfNeg[i])
			}
		}
		if got.msfW != base.msfW {
			t.Fatalf("p=%d: MSF weight %d vs %d", p, got.msfW, base.msfW)
		}
		if got.mmLen != base.mmLen {
			t.Fatalf("p=%d: matching size %d vs %d", p, got.mmLen, base.mmLen)
		}
		if !seqref.SamePartition(got.ccPart, base.ccPart) {
			t.Fatalf("p=%d: CC partition differs", p)
		}
		if !seqref.SamePartition(got.sccPart, base.sccPart) {
			t.Fatalf("p=%d: SCC partition differs", p)
		}
		if got.tc != base.tc {
			t.Fatalf("p=%d: TC %d vs %d", p, got.tc, base.tc)
		}
		if !slices.Equal(got.cover, base.cover) {
			t.Fatalf("p=%d: set cover differs (%d vs %d sets)", p, len(got.cover), len(base.cover))
		}
	}
}

func TestBiconnectivityDeterministicAcrossWorkers(t *testing.T) {
	g := symGraphs()["er"]
	var base map[uint64]uint32
	withWorkers(1, func(s *parallel.Scheduler) { base = biccEdgePartition(g, Biconnectivity(s, g)) })
	var par map[uint64]uint32
	withWorkers(runtime.NumCPU(), func(s *parallel.Scheduler) { par = biccEdgePartition(g, Biconnectivity(s, g)) })
	if !samePartitionMaps(base, par) {
		t.Fatal("biconnectivity partition depends on worker count")
	}
}
