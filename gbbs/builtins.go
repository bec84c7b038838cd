package gbbs

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/stats"
)

// This file registers the benchmark's built-in algorithms; Engine.Run is
// the only way to execute them. Each runner executes on the engine's
// per-call scheduler (via Engine.exec), so it inherits the engine's thread
// budget and observes the run's context between rounds. The Value each
// runner returns is listed in Result.Value's comment. PaperRow/PaperOrder
// mark the 15 problems forming the rows of the paper's Tables 2, 4 and 5
// (gbbs.PaperSuite).
//
// Every registration declares its full Param schema — the defaults are the
// paper's settings — so Engine.Run rejects unknown or out-of-range Opts and
// runners read values through the typed accessors (req.Int, req.Float)
// instead of ad-hoc map probing. The shared beta parameter of the
// LDD-derived algorithms is declared once below (paramBeta).

func countReached32(dist []uint32) int {
	c := 0
	for _, d := range dist {
		if d != Inf {
			c++
		}
	}
	return c
}

// register wraps Register for the builtin table below, running fn inside
// Engine.exec on the request's effective seed.
func register(a Algorithm, fn func(s *parallel.Scheduler, e *Engine, req Request) Result) {
	a.Run = func(ctx context.Context, e *Engine, req Request) (Result, error) {
		var res Result
		err := e.exec(ctx, func(s *parallel.Scheduler) { res = fn(s, e, req) })
		if err != nil {
			return Result{}, err
		}
		return res, nil
	}
	Register(a)
}

// statsText renders the statistics as the paper's table layout for CLI output
// (Result.Value implements fmt.Stringer when extra detail is printable).
type statsText struct {
	Stats    stats.Graph
	Directed bool
}

func (v statsText) String() string {
	var b strings.Builder
	stats.WriteTable(&b, v.Stats, v.Directed)
	return strings.TrimRight(b.String(), "\n")
}

// paramBeta is the LDD ball-growth parameter shared by every algorithm
// built on low-diameter decomposition (ldd, cc, spanforest, bicc): the
// paper's β = 0.2 default, with the decomposition meaningful only for
// β in (0, 1].
func paramBeta() Param {
	return FloatParam("beta", 0.2, "LDD ball-growth rate β: clusters have diameter O(log n/β), 2βm edges cut").Bounded(1e-6, 1)
}

func init() {
	register(Algorithm{
		Name: "bfs", Description: "breadth-first search: hop distances from a source; O(m) work, O(diam·log n) depth",
		NeedsSource: true, PaperRow: "Breadth-First Search (BFS)", PaperOrder: 1,
	}, func(s *parallel.Scheduler, e *Engine, req Request) Result {
		dist := core.BFS(s, req.Graph, req.Source)
		return Result{Summary: fmt.Sprintf("reached %d vertices", countReached32(dist)), Value: dist}
	})

	register(Algorithm{
		Name: "wbfs", Description: "integral-weight SSSP via bucketed weighted BFS (Julienne); O(m) expected work",
		NeedsSource: true, NeedsWeights: true,
		PaperRow: "Integral-Weight SSSP (weighted BFS)", PaperOrder: 2,
	}, func(s *parallel.Scheduler, e *Engine, req Request) Result {
		dist := core.WeightedBFS(s, req.Graph, req.Source)
		return Result{Summary: fmt.Sprintf("reached %d vertices", countReached32(dist)), Value: dist}
	})

	register(Algorithm{
		Name: "deltastepping", Description: "positive-weight SSSP via Meyer-Sanders Δ-stepping (the paper's GAP comparator)",
		NeedsSource: true, NeedsWeights: true,
		Params: []Param{IntParam("delta", 0, "bucket width Δ; 0 selects the average edge weight").Bounded(0, 1<<30)},
	}, func(s *parallel.Scheduler, e *Engine, req Request) Result {
		dist := core.DeltaStepping(s, req.Graph, req.Source, int32(req.Int("delta")))
		return Result{Summary: fmt.Sprintf("reached %d vertices", countReached32(dist)), Value: dist}
	})

	register(Algorithm{
		Name: "bellmanford", Description: "general-weight SSSP with negative-cycle detection; O(diam·m) work",
		NeedsSource: true, NeedsWeights: true,
		PaperRow: "General-Weight SSSP (Bellman-Ford)", PaperOrder: 3,
	}, func(s *parallel.Scheduler, e *Engine, req Request) Result {
		dist, neg := core.BellmanFord(s, req.Graph, req.Source)
		reached := 0
		for _, d := range dist {
			if d != InfDist {
				reached++
			}
		}
		return Result{Summary: fmt.Sprintf("reached %d vertices, negative cycle: %v", reached, neg), Value: dist}
	})

	register(Algorithm{
		Name: "bc", Description: "single-source betweenness-centrality dependency scores; O(m) work, O(diam·log n) depth",
		NeedsSource: true, PaperRow: "Single-Source Betweenness Centrality (BC)", PaperOrder: 4,
	}, func(s *parallel.Scheduler, e *Engine, req Request) Result {
		dep := core.BC(s, req.Graph, req.Source)
		max := 0.0
		for _, d := range dep {
			if d > max {
				max = d
			}
		}
		return Result{Summary: fmt.Sprintf("max dependency %.1f", max), Value: dep}
	})

	register(Algorithm{
		Name: "ldd", Description: "(2β, O(log n/β))-low-diameter decomposition (Miller-Peng-Xu); O(m) expected work",
		PaperRow: "Low-Diameter Decomposition (LDD)", PaperOrder: 5,
		Params: []Param{paramBeta()},
	}, func(s *parallel.Scheduler, e *Engine, req Request) Result {
		labels := core.LDD(s, req.Graph, req.Float("beta"), req.seed(e))
		num, largest := core.ComponentCount(s, labels)
		return Result{Summary: fmt.Sprintf("%d clusters, largest %d", num, largest), Value: labels}
	})

	register(Algorithm{
		Name: "cc", Description: "connected-component labels via LDD contraction; O(m) expected work, O(log³ n) depth w.h.p.",
		PaperRow: "Connectivity", PaperOrder: 6,
		Params: []Param{paramBeta()},
	}, func(s *parallel.Scheduler, e *Engine, req Request) Result {
		labels := core.Connectivity(s, req.Graph, req.Float("beta"), req.seed(e))
		num, largest := core.ComponentCount(s, labels)
		return Result{Summary: fmt.Sprintf("%d components, largest %d", num, largest), Value: labels}
	})

	register(Algorithm{
		Name: "incrcc", Description: "connected-component labels via bulk-parallel union-find (Simsiri et al.); with Request.Incr set, unites only the inserted edges — O(b·α(n)) work for b insertions",
		Params: []Param{BoolParam("rebuild", false, "ignore Request.Incr and recompute from the full graph (checks the incremental path)")},
	}, func(s *parallel.Scheduler, e *Engine, req Request) Result {
		// The incremental path is an accelerator, not a different algorithm:
		// both branches produce the identical canonical labelling (each
		// vertex mapped to its component's minimum vertex id), so the
		// summary and value are independent of which branch ran — a
		// requirement for the serving layer, whose result-cache key excludes
		// Request.Incr.
		var labels []uint32
		if st := req.Incr; st != nil && !req.Bool("rebuild") && len(st.Labels) == req.Graph.N() {
			labels = core.IncrementalCC(s, st.Labels, st.Batches)
		} else {
			labels = core.UnionFindCC(s, req.Graph)
		}
		num, largest := core.ComponentCount(s, labels)
		return Result{Summary: fmt.Sprintf("%d components, largest %d", num, largest), Value: labels}
	})

	register(Algorithm{
		Name: "spanforest", Description: "rooted spanning forest (parents): LDD connectivity, then a multi-source BFS from each component's minimum vertex",
		Params: []Param{paramBeta()},
	}, func(s *parallel.Scheduler, e *Engine, req Request) Result {
		parent, _, roots := core.SpanningForest(s, req.Graph, req.Float("beta"), req.seed(e))
		return Result{Summary: fmt.Sprintf("%d trees, %d forest edges", len(roots), core.ForestEdgeCount(s, parent)), Value: parent}
	})

	register(Algorithm{
		Name: "bicc", Description: "biconnected-component labels via Tarjan-Vishkin; O(m) expected work",
		PaperRow: "Biconnectivity", PaperOrder: 7,
		Params: []Param{paramBeta()},
	}, func(s *parallel.Scheduler, e *Engine, req Request) Result {
		b := core.Biconnectivity(s, req.Graph, req.Float("beta"), req.seed(e))
		return Result{Summary: fmt.Sprintf("%d biconnected components", core.NumBiccLabels(s, req.Graph, b)), Value: b}
	})

	register(Algorithm{
		Name: "scc", Description: "strongly connected components via randomized multi-source reachability; O(m·log n) expected work",
		Directed: true, PaperRow: "Strongly Connected Components (SCC)", PaperOrder: 8,
		Params: []Param{
			FloatParam("beta", 2.0, "exponential growth rate of the per-phase center batch; the paper explores [1.1, 2.0]").Bounded(1.01, 16),
			IntParam("trimrounds", 3, "zero-degree trimming iterations before the main loop; 0 or -1 disables trimming").Bounded(-1, 1024),
		},
	}, func(s *parallel.Scheduler, e *Engine, req Request) Result {
		labels := core.SCC(s, req.Graph, req.seed(e), core.SCCOpts{Beta: req.Float("beta"), TrimRounds: req.Int("trimrounds")})
		num, largest := core.ComponentCount(s, labels)
		return Result{Summary: fmt.Sprintf("%d SCCs, largest %d", num, largest), Value: labels}
	})

	register(Algorithm{
		Name: "msf", Description: "minimum spanning forest via parallel Borůvka; O(m·log n) work",
		NeedsWeights: true, PaperRow: "Minimum Spanning Forest (MSF)", PaperOrder: 9,
	}, func(s *parallel.Scheduler, e *Engine, req Request) Result {
		forest, w := core.MSF(s, req.Graph)
		return Result{Summary: fmt.Sprintf("%d edges, weight %d", len(forest), w), Value: forest}
	})

	register(Algorithm{
		Name: "mis", Description: "maximal independent set, greedy over a random permutation (rootset-based); O(m) expected work",
		PaperRow: "Maximal Independent Set (MIS)", PaperOrder: 10,
	}, func(s *parallel.Scheduler, e *Engine, req Request) Result {
		in := core.MIS(s, req.Graph, req.seed(e))
		c := 0
		for _, ok := range in {
			if ok {
				c++
			}
		}
		return Result{Summary: fmt.Sprintf("%d vertices in MIS", c), Value: in}
	})

	register(Algorithm{
		Name: "misprefix", Description: "maximal independent set, prefix-based baseline the paper compares against",
	}, func(s *parallel.Scheduler, e *Engine, req Request) Result {
		in := core.MISPrefix(s, req.Graph, req.seed(e))
		c := 0
		for _, ok := range in {
			if ok {
				c++
			}
		}
		return Result{Summary: fmt.Sprintf("%d vertices in MIS", c), Value: in}
	})

	register(Algorithm{
		Name: "mm", Description: "maximal matching, greedy over a random edge permutation; O(m) expected work",
		PaperRow: "Maximal Matching (MM)", PaperOrder: 11,
	}, func(s *parallel.Scheduler, e *Engine, req Request) Result {
		match := core.MaximalMatching(s, req.Graph, req.seed(e))
		return Result{Summary: fmt.Sprintf("%d matched edges", len(match)), Value: match}
	})

	register(Algorithm{
		Name: "coloring", Description: "(Δ+1)-vertex-coloring via Jones-Plassmann under the LLF heuristic",
		PaperRow: "Graph Coloring", PaperOrder: 12,
	}, func(s *parallel.Scheduler, e *Engine, req Request) Result {
		colors := core.Coloring(s, req.Graph, req.seed(e))
		return Result{Summary: fmt.Sprintf("%d colors", core.NumColors(s, colors)), Value: colors}
	})

	register(Algorithm{
		Name: "coloring-lf", Description: "(Δ+1)-vertex-coloring via Jones-Plassmann under the largest-degree-first heuristic",
	}, func(s *parallel.Scheduler, e *Engine, req Request) Result {
		colors := core.ColoringLF(s, req.Graph, req.seed(e))
		return Result{Summary: fmt.Sprintf("%d colors", core.NumColors(s, colors)), Value: colors}
	})

	register(Algorithm{
		Name: "kcore", Description: "exact coreness of every vertex via work-efficient bucketed peeling; O(m+n) expected work",
		PaperRow: "k-core", PaperOrder: 13,
	}, func(s *parallel.Scheduler, e *Engine, req Request) Result {
		coreness, rho := core.KCore(s, req.Graph)
		return Result{Summary: fmt.Sprintf("kmax=%d rho=%d", core.Degeneracy(s, coreness), rho), Value: coreness}
	})

	register(Algorithm{
		Name: "kcore-faa", Description: "k-core peeling with fetch-and-add updates (the paper's Table 6 ablation baseline)",
	}, func(s *parallel.Scheduler, e *Engine, req Request) Result {
		coreness, rho := core.KCoreFetchAndAdd(s, req.Graph)
		return Result{Summary: fmt.Sprintf("kmax=%d rho=%d", core.Degeneracy(s, coreness), rho), Value: coreness}
	})

	register(Algorithm{
		Name: "approxkcore", Description: "approximate coreness rounded to powers of two (Slota et al., Table 7 comparator)",
	}, func(s *parallel.Scheduler, e *Engine, req Request) Result {
		coreness := core.ApproxKCore(s, req.Graph)
		return Result{Summary: fmt.Sprintf("kmax=%d (approx)", core.Degeneracy(s, coreness)), Value: coreness}
	})

	register(Algorithm{
		Name: "setcover", Description: "O(log n)-approximation of set cover where the set of v covers N(v); O(m) expected work",
		PaperRow: "Approximate Set Cover", PaperOrder: 14,
		Params: []Param{FloatParam("eps", 0.01, "bucketing accuracy ε: elements are peeled in (1+ε)-factor cost classes").Bounded(1e-6, 1)},
	}, func(s *parallel.Scheduler, e *Engine, req Request) Result {
		cover := core.ApproxSetCover(s, req.Graph, req.Float("eps"), req.seed(e))
		return Result{Summary: fmt.Sprintf("%d sets in cover", len(cover)), Value: cover}
	})

	register(Algorithm{
		Name: "tc", Description: "triangle count of a symmetric graph via sorted intersection; O(m^1.5) work",
		PaperRow: "Triangle Counting (TC)", PaperOrder: 15,
	}, func(s *parallel.Scheduler, e *Engine, req Request) Result {
		count := core.TriangleCount(s, req.Graph)
		return Result{Summary: fmt.Sprintf("%d triangles", count), Value: count}
	})

	register(Algorithm{
		Name: "stats", Description: "undirected-graph statistics suite behind the paper's Tables 3 and 8-13",
	}, func(s *parallel.Scheduler, e *Engine, req Request) Result {
		gs := stats.ComputeSym(s, "input", req.Graph, stats.Options{Seed: req.seed(e)})
		return Result{
			Summary: fmt.Sprintf("n=%d m=%d cc=%d tri=%d kmax=%d", gs.N, gs.M, gs.NumCC, gs.Triangles, gs.KMax),
			Value:   statsText{Stats: gs},
		}
	})

	register(Algorithm{
		Name: "stats-dir", Description: "directed-graph statistics (SCC structure, directed diameter)",
		Directed: true,
	}, func(s *parallel.Scheduler, e *Engine, req Request) Result {
		gs := stats.ComputeDir(s, "input", req.Graph, stats.Options{Seed: req.seed(e)})
		return Result{
			Summary: fmt.Sprintf("n=%d m=%d scc=%d largest=%d", gs.N, gs.M, gs.NumSCC, gs.LargestSCC),
			Value:   statsText{Stats: gs, Directed: true},
		}
	})
}
