// Package stats computes the per-graph statistics the paper reports in
// Table 3 (sizes, effective diameters, peeling complexity ρ, degeneracy
// k_max) and Tables 8-13 (component counts and sizes, triangles, colors
// used, MIS / maximal matching / set cover sizes). The statistics double as
// end-to-end checks: they are produced by running the benchmark's own
// algorithms.
package stats

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/xrand"
)

// Graph bundles the statistics of one input graph.
type Graph struct {
	Name              string
	N                 int
	M                 int // directed edge count, as the paper reports
	EffectiveDiameter int // max BFS level observed from sampled sources (lower bound)
	NumCC             int
	LargestCC         int
	NumBCC            int
	NumSCC            int // directed graphs only (0 otherwise)
	LargestSCC        int
	Triangles         int64
	ColorsLLF         int
	ColorsLF          int
	MISSize           int
	MatchingSize      int
	SetCoverSize      int
	KMax              int
	Rho               int
}

// Options tunes which statistics are computed.
type Options struct {
	// DiameterSamples is the number of BFS sources used to estimate the
	// effective diameter; 0 selects 4.
	DiameterSamples int
	// SkipTriangles skips the O(m^{3/2}) triangle count.
	SkipTriangles bool
	// Seed feeds the randomized algorithms.
	Seed uint64
}

// ComputeSym computes the undirected-graph statistics of a symmetric graph.
func ComputeSym(s *parallel.Scheduler, name string, g graph.Graph, opt Options) Graph {
	if opt.DiameterSamples == 0 {
		opt.DiameterSamples = 4
	}
	st := Graph{Name: name, N: g.N(), M: g.M()}
	st.EffectiveDiameter = EffectiveDiameter(s, g, opt.DiameterSamples, opt.Seed)
	cc := core.Connectivity(s, g, 0.2, opt.Seed)
	st.NumCC, st.LargestCC = core.ComponentCount(s, cc)
	bicc := core.Biconnectivity(s, g)
	st.NumBCC = core.NumBiccLabels(s, g, bicc)
	if !opt.SkipTriangles {
		st.Triangles = core.TriangleCount(s, g)
	}
	st.ColorsLLF = core.NumColors(s, core.Coloring(s, g, opt.Seed))
	st.ColorsLF = core.NumColors(s, core.ColoringLF(s, g, opt.Seed))
	mis := core.MIS(s, g, opt.Seed)
	for _, in := range mis {
		if in {
			st.MISSize++
		}
	}
	st.MatchingSize = len(core.MaximalMatching(s, g, opt.Seed))
	st.SetCoverSize = len(core.ApproxSetCover(s, g, 0.01, opt.Seed))
	coreness, rho := core.KCore(s, g)
	st.KMax = core.Degeneracy(s, coreness)
	st.Rho = rho
	return st
}

// ComputeDir computes the directed-graph statistics (SCCs, directed
// effective diameter).
func ComputeDir(s *parallel.Scheduler, name string, g graph.Graph, opt Options) Graph {
	if opt.DiameterSamples == 0 {
		opt.DiameterSamples = 4
	}
	st := Graph{Name: name, N: g.N(), M: g.M()}
	st.EffectiveDiameter = EffectiveDiameter(s, g, opt.DiameterSamples, opt.Seed)
	labels := core.SCC(s, g, opt.Seed, core.SCCOpts{Beta: 2.0, TrimRounds: 3})
	st.NumSCC, st.LargestSCC = core.ComponentCount(s, labels)
	return st
}

// EffectiveDiameter returns the maximum BFS level observed from `samples`
// pseudo-random sources (plus vertex 0), the paper's lower-bound estimate
// for graphs whose exact diameter is impractical to compute.
func EffectiveDiameter(s *parallel.Scheduler, g graph.Graph, samples int, seed uint64) int {
	n := g.N()
	if n == 0 {
		return 0
	}
	max := 0
	for i := 0; i <= samples; i++ {
		src := uint32(0)
		if i > 0 {
			src = uint32(xrand.Uniform(seed, uint64(i), uint64(n)))
		}
		dist := core.BFS(s, g, src)
		for _, d := range dist {
			if d != core.Inf && int(d) > max {
				max = int(d)
			}
		}
	}
	return max
}

// WriteTable writes statistics rows in the layout of the paper's Tables
// 8-13.
func WriteTable(w io.Writer, st Graph, directed bool) {
	fmt.Fprintf(w, "Statistics for the %s graph\n", st.Name)
	fmt.Fprintf(w, "  Num. Vertices                     %d\n", st.N)
	fmt.Fprintf(w, "  Num. Edges (directed count)       %d\n", st.M)
	fmt.Fprintf(w, "  Effective Diameter (sampled)      %d\n", st.EffectiveDiameter)
	if directed {
		fmt.Fprintf(w, "  Num. Strongly Connected Comp.     %d\n", st.NumSCC)
		fmt.Fprintf(w, "  Size of Largest SCC               %d\n", st.LargestSCC)
		return
	}
	fmt.Fprintf(w, "  Num. Connected Components         %d\n", st.NumCC)
	fmt.Fprintf(w, "  Size of Largest Component         %d\n", st.LargestCC)
	fmt.Fprintf(w, "  Num. Biconnected Components       %d\n", st.NumBCC)
	fmt.Fprintf(w, "  Num. Triangles                    %d\n", st.Triangles)
	fmt.Fprintf(w, "  Num. Colors Used by LF            %d\n", st.ColorsLF)
	fmt.Fprintf(w, "  Num. Colors Used by LLF           %d\n", st.ColorsLLF)
	fmt.Fprintf(w, "  Maximal Independent Set Size      %d\n", st.MISSize)
	fmt.Fprintf(w, "  Maximal Matching Size             %d\n", st.MatchingSize)
	fmt.Fprintf(w, "  Set Cover Size                    %d\n", st.SetCoverSize)
	fmt.Fprintf(w, "  kmax (Degeneracy)                 %d\n", st.KMax)
	fmt.Fprintf(w, "  rho (Num. Peeling Rounds)         %d\n", st.Rho)
}
