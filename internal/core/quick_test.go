package core

// Property-based tests: testing/quick generates arbitrary edge lists; every
// algorithm must agree with its oracle on whatever graph results. These
// catch edge-shapes the fixture families miss (multi-edges collapsing,
// self-loops, duplicate runs, disconnected shards).

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/seqref"
)

// quickGraph builds a symmetric graph over 48 vertices from arbitrary bytes.
func quickGraph(raw []uint16, weighted bool) *graph.CSR {
	const n = 48
	el := &graph.EdgeList{N: n}
	if weighted {
		el.W = []int32{}
	}
	for i := 0; i+1 < len(raw); i += 2 {
		u := uint32(raw[i]) % n
		v := uint32(raw[i+1]) % n
		w := int32(raw[i]%9) + 1
		el.Add(u, v, w)
	}
	return graph.FromEdgeList(sched, n, el, graph.BuildOptions{Symmetrize: true})
}

func quickCfg() *quick.Config { return &quick.Config{MaxCount: 60} }

func TestQuickBFSAgainstOracle(t *testing.T) {
	err := quick.Check(func(raw []uint16) bool {
		g := quickGraph(raw, false)
		want := seqref.BFS(g, 0)
		got := BFS(sched, g, 0)
		for v := range want {
			if got[v] != want[v] {
				return false
			}
		}
		return true
	}, quickCfg())
	if err != nil {
		t.Fatal(err)
	}
}

func TestQuickConnectivityAgainstOracle(t *testing.T) {
	err := quick.Check(func(raw []uint16, seed uint64) bool {
		g := quickGraph(raw, false)
		return seqref.SamePartition(seqref.Components(g), Connectivity(sched, g, 0.2, seed))
	}, quickCfg())
	if err != nil {
		t.Fatal(err)
	}
}

func TestQuickKCoreAgainstOracle(t *testing.T) {
	err := quick.Check(func(raw []uint16) bool {
		g := quickGraph(raw, false)
		want := seqref.Coreness(g)
		got, _ := KCore(sched, g)
		for v := range want {
			if got[v] != want[v] {
				return false
			}
		}
		return true
	}, quickCfg())
	if err != nil {
		t.Fatal(err)
	}
}

func TestQuickTriangleCountAgainstOracle(t *testing.T) {
	err := quick.Check(func(raw []uint16) bool {
		g := quickGraph(raw, false)
		return TriangleCount(sched, g) == seqref.Triangles(g)
	}, quickCfg())
	if err != nil {
		t.Fatal(err)
	}
}

func TestQuickWeightedSSSPAgainstOracle(t *testing.T) {
	err := quick.Check(func(raw []uint16) bool {
		g := quickGraph(raw, true)
		want := seqref.Dijkstra(g, 0)
		wbfs := WeightedBFS(sched, g, 0)
		ds := DeltaStepping(sched, g, 0, 2)
		for v := range want {
			if want[v] == math.MaxInt64 {
				if wbfs[v] != Inf || ds[v] != Inf {
					return false
				}
				continue
			}
			if int64(wbfs[v]) != want[v] || int64(ds[v]) != want[v] {
				return false
			}
		}
		return true
	}, quickCfg())
	if err != nil {
		t.Fatal(err)
	}
}

func TestQuickMSFAgainstKruskal(t *testing.T) {
	err := quick.Check(func(raw []uint16) bool {
		g := quickGraph(raw, true)
		eu, ev, ew := extractEdges(sched, g, true)
		wantW, wantC := seqref.Kruskal(g.N(), eu, ev, ew)
		forest, gotW := MSF(sched, g)
		return gotW == wantW && len(forest) == wantC
	}, quickCfg())
	if err != nil {
		t.Fatal(err)
	}
}

func TestQuickMISMaximalIndependent(t *testing.T) {
	err := quick.Check(func(raw []uint16, seed uint64) bool {
		g := quickGraph(raw, false)
		in := MIS(sched, g, seed)
		for v := 0; v < g.N(); v++ {
			hasSet := false
			bad := false
			g.OutNgh(uint32(v), func(u uint32, _ int32) bool {
				if in[u] {
					hasSet = true
					if in[v] {
						bad = true
					}
				}
				return true
			})
			if bad || (!in[v] && !hasSet) {
				return false
			}
		}
		return true
	}, quickCfg())
	if err != nil {
		t.Fatal(err)
	}
}

func TestQuickColoringProper(t *testing.T) {
	err := quick.Check(func(raw []uint16, seed uint64) bool {
		g := quickGraph(raw, false)
		return ValidColoring(sched, g, Coloring(sched, g, seed)) && ValidColoring(sched, g, ColoringLF(sched, g, seed))
	}, quickCfg())
	if err != nil {
		t.Fatal(err)
	}
}

func TestQuickSCCAgainstTarjan(t *testing.T) {
	err := quick.Check(func(raw []uint16, seed uint64) bool {
		const n = 40
		el := &graph.EdgeList{N: n}
		for i := 0; i+1 < len(raw); i += 2 {
			el.Add(uint32(raw[i])%n, uint32(raw[i+1])%n, 1)
		}
		g := graph.FromEdgeList(sched, n, el, graph.BuildOptions{})
		return seqref.SamePartition(seqref.SCC(g), SCC(sched, g, seed, SCCOpts{Beta: 1.5, TrimRounds: 3}))
	}, quickCfg())
	if err != nil {
		t.Fatal(err)
	}
}

func TestQuickBiconnectivityAgainstHopcroftTarjan(t *testing.T) {
	err := quick.Check(func(raw []uint16) bool {
		g := quickGraph(raw, false)
		if g.M() == 0 {
			return true
		}
		want := seqref.BCC(g)
		got := biccEdgePartition(g, Biconnectivity(sched, g))
		return samePartitionMaps(want, got)
	}, &quick.Config{MaxCount: 40})
	if err != nil {
		t.Fatal(err)
	}
}

func TestQuickSetCoverValid(t *testing.T) {
	err := quick.Check(func(raw []uint16, seed uint64) bool {
		g := quickGraph(raw, false)
		return CoverIsValid(sched, g, ApproxSetCover(sched, g, 0.01, seed))
	}, quickCfg())
	if err != nil {
		t.Fatal(err)
	}
}

func TestQuickMatchingValidMaximal(t *testing.T) {
	err := quick.Check(func(raw []uint16, seed uint64) bool {
		g := quickGraph(raw, false)
		m := MaximalMatching(sched, g, seed)
		return MatchingIsValid(g, m) && MatchingIsMaximal(sched, g, m)
	}, quickCfg())
	if err != nil {
		t.Fatal(err)
	}
}
