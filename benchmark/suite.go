package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/gbbs"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/xrand"
)

// graphSeed seeds every graph generator and weight assignment. The
// workload seed deliberately does not: two RMAT graphs of one scale differ
// by up to a fifth in suite time, and Bellman-Ford's round count on the grid
// follows the weights, so a per-seed graph would put input variance into
// every run-to-run comparison. The workload seed drives what can vary
// without changing the amount of work: algorithm seeds, sources, request
// order, fingerprints and edge batches.
const graphSeed = 1

// graphSpec names a generated input: an RMAT graph (scale, factor, seed) or,
// when gridSide is set, a 2D grid. It renders as a source spec for the
// daemon, as a gbbs source for in-process builds, and as a bare edge list
// for the generator probe.
type graphSpec struct {
	rmatScale, rmatFactor int
	gridSide              int
	seed                  uint64
}

func (g graphSpec) String() string {
	if g.gridSide > 0 {
		return fmt.Sprintf("grid:side=%d", g.gridSide)
	}
	return fmt.Sprintf("rmat:scale=%d,factor=%d,seed=%d", g.rmatScale, g.rmatFactor, g.seed)
}

func (g graphSpec) source() gbbs.GraphSource {
	if g.gridSide > 0 {
		return gbbs.Grid(g.gridSide)
	}
	return gbbs.RMAT(g.rmatScale, g.rmatFactor, g.seed)
}

func (g graphSpec) edges(s *parallel.Scheduler) *graph.EdgeList {
	if g.gridSide > 0 {
		return gen.Grid2D(g.gridSide)
	}
	return gen.RMAT(s, g.rmatScale, g.rmatFactor, g.seed)
}

// suiteSpec describes one in-process suite workload: the graph regime and
// which variants of the paper's table it measures.
type suiteSpec struct {
	graph      graphSpec
	directed   bool // build the directed variant and run scc on it
	compressed bool // also run the suite over the parallel-byte encoding
}

func suiteSpecFor(workload string, smoke bool) suiteSpec {
	if workload == "suite-grid" {
		side := 256
		if smoke {
			side = 32
		}
		// The paper skips SCC on its high-diameter 3D-Torus; so does this.
		return suiteSpec{graph: graphSpec{gridSide: side, seed: graphSeed}}
	}
	scale := 16
	if smoke {
		scale = 10
	}
	return suiteSpec{graph: graphSpec{rmatScale: scale, rmatFactor: 8, seed: graphSeed}, directed: true, compressed: true}
}

// suiteGraphs are the built variants of one suite input.
type suiteGraphs struct {
	sym  *gbbs.CSR  // symmetric, paper-weighted
	dir  gbbs.Graph // directed (nil unless the spec asks)
	comp gbbs.Graph // parallel-byte form of sym (nil unless the spec asks)
	src  uint32
}

// buildSuiteGraphs generates and builds every variant on eng. The source is
// vertex 0 on both regimes: RMAT's heaviest vertex (always inside the giant
// component) and the grid's corner (the full 2·side-2 BFS depth), so the
// round count does not depend on the seed.
func buildSuiteGraphs(ctx context.Context, eng *gbbs.Engine, spec suiteSpec) (*suiteGraphs, error) {
	src := spec.graph.source()
	sym, err := eng.BuildCSR(ctx, src, gbbs.Symmetrize(), gbbs.PaperWeights(spec.graph.seed))
	if err != nil {
		return nil, err
	}
	g := &suiteGraphs{sym: sym}
	if spec.directed {
		if g.dir, err = eng.Build(ctx, src); err != nil {
			return nil, err
		}
	}
	if spec.compressed {
		if g.comp, err = eng.Build(ctx, gbbs.Prebuilt(sym), gbbs.EncodeCompressed(0)); err != nil {
			return nil, err
		}
	}
	if sym.OutDeg(g.src) == 0 {
		return nil, fmt.Errorf("source vertex %d is isolated", g.src)
	}
	return g, nil
}

// suiteVariant is one column of the suite: an engine and a representation.
type suiteVariant struct {
	name string // "t1", "tp" or "ctp"
	eng  *gbbs.Engine
	comp bool
}

// suiteRun holds the engines and inputs a suite workload keeps warm across
// its passes.
type suiteRun struct {
	e        *env
	spec     suiteSpec
	g        *suiteGraphs
	eng1     *gbbs.Engine
	engP     *gbbs.Engine
	variants []suiteVariant
	problems []string
	tiny     gbbs.Graph // 2-vertex path: a run with no algorithm work
}

func (s *suiteRun) close() {
	s.eng1.Close()
	s.engP.Close()
}

// graphFor picks the variant of the input problem runs on; nil when the
// workload does not run it there.
func (s *suiteRun) graphFor(problem string, v suiteVariant) gbbs.Graph {
	a, _ := gbbs.Lookup(problem)
	switch {
	case a.Directed && v.comp:
		return nil
	case a.Directed:
		return s.g.dir
	case v.comp:
		return s.g.comp
	}
	return s.g.sym
}

func (s *suiteRun) run(ctx context.Context, v suiteVariant, problem string) (gbbs.Result, error) {
	return v.eng.Run(ctx, problem, gbbs.Request{Graph: s.graphFor(problem, v), Source: s.g.src, Seed: &s.e.seed})
}

// setupSuite builds the inputs (three times, reporting the median: set-up
// is a gated metric), checks one result of every problem on every variant
// and times the sequential references.
func setupSuite(ctx context.Context, e *env, rec *runRecord) (*suiteRun, *oracle, error) {
	s := &suiteRun{
		e:    e,
		spec: suiteSpecFor(e.workload, e.smoke),
		eng1: gbbs.New(gbbs.WithThreads(1), gbbs.WithSeed(e.seed)),
		engP: gbbs.New(gbbs.WithThreads(e.threads), gbbs.WithSeed(e.seed)),
	}
	var setups []float64
	for i := 0; i < e.setupReps(); i++ {
		start := time.Now()
		sp := e.tr.begin("gbbs.Engine.Build", -1, 0)
		g, err := buildSuiteGraphs(ctx, s.engP, s.spec)
		e.tr.end(sp)
		if err != nil {
			s.close()
			return nil, nil, fmt.Errorf("building inputs: %w", err)
		}
		s.g = g
		setups = append(setups, time.Since(start).Seconds())
	}
	rec.Metrics.setDist("setup_s", summarise(setups))
	tiny, err := s.engP.Build(ctx, gbbs.Path(2), gbbs.Symmetrize())
	if err != nil {
		s.close()
		return nil, nil, err
	}
	s.tiny = tiny

	s.variants = []suiteVariant{{"t1", s.eng1, false}, {"tp", s.engP, false}}
	if s.spec.compressed {
		s.variants = append(s.variants, suiteVariant{"ctp", s.engP, true})
	}
	for _, p := range suiteProblems {
		if a, _ := gbbs.Lookup(p); a.Directed && !s.spec.directed {
			continue
		}
		s.problems = append(s.problems, p)
	}
	rec.Info["problems"] = s.problems
	rec.Info["graph"] = map[string]any{"n": s.g.sym.N(), "m": s.g.sym.M(), "spec": s.spec.graph.String()}

	// One checked run per problem and variant. It doubles as the warm-up
	// pass: pools start, heaps grow and pages fault in here, not in a timed
	// pass. Every variant must give the P-thread flat answer's summary —
	// results are deterministic in (input, seed) at any thread count and in
	// either representation. LDD alone is exempt: it breaks ties between
	// simultaneous searches arbitrarily, so only its cluster centres are
	// checked (in checkSuite).
	results := make(map[string]gbbs.Result)
	summaries := make(map[string]map[string]string)
	for _, v := range s.variants {
		summaries[v.name] = make(map[string]string)
		for _, p := range s.problems {
			if s.graphFor(p, v) == nil {
				continue
			}
			rec.Attempted++
			res, err := s.run(ctx, v, p)
			if err != nil {
				rec.fail("%s@%s: %v", p, v.name, err)
				continue
			}
			summaries[v.name][p] = res.Summary
			if v.name == "tp" {
				results[p] = res
			}
		}
	}
	for variant, byProblem := range summaries {
		for p, summary := range byProblem {
			if want := summaries["tp"][p]; p != "ldd" && summary != want {
				rec.fail("%s@%s: summary %q differs from the P-thread flat run's %q", p, variant, summary, want)
			}
		}
	}
	sched := parallel.New(e.threads)
	defer sched.Close()
	o, errs := checkSuite(sched, s.g.sym, s.g.dir, s.g.src, results)
	for _, err := range errs {
		rec.fail("%v", err)
	}
	return s, o, nil
}

// suiteSamples are the timings of one timed phase.
type suiteSamples struct {
	elapsed  map[string]map[string][]float64 // variant -> problem -> ms per pass
	tail     []float64                       // each run's time over its class median, filled at the end
	noopUS   []float64
	ingestMS []float64
	runs     int
	wall     time.Duration
	passes   int
}

// timedSuite runs passes for about seconds: every problem on every variant
// per pass, variant order rotated per pass so no column always runs on the
// heap the previous one left. After each problem run it also issues the two
// cheap caller-visible operations the serving workloads have natural
// counterparts for (cheapOps): a run that does no algorithm work (64 calls,
// averaged — one call is below timer resolution) and 5000-edge insertions
// into the workload graph.
func (s *suiteRun) timedSuite(ctx context.Context, seconds float64, minPasses int, rec *runRecord, tr *tracer) *suiteSamples {
	out := &suiteSamples{elapsed: make(map[string]map[string][]float64)}
	for _, v := range s.variants {
		out.elapsed[v.name] = make(map[string][]float64)
	}
	op := int64(0)
	start := time.Now()
	for {
		passStart := time.Now()
		passSpan := tr.begin("suite.pass", -1, int64(out.passes))
		for i := range s.variants {
			v := s.variants[(i+out.passes)%len(s.variants)]
			for _, p := range s.problems {
				if s.graphFor(p, v) == nil {
					continue
				}
				op++
				rec.Attempted++
				sp := tr.begin("gbbs.Engine.Run/"+p+"@"+v.name, passSpan, op)
				res, err := s.run(ctx, v, p)
				tr.end(sp)
				if err != nil {
					rec.fail("%s@%s: %v", p, v.name, err)
					continue
				}
				out.runs++
				out.elapsed[v.name][p] = append(out.elapsed[v.name][p], float64(res.Elapsed)/1e6)
				s.cheapOps(ctx, op, passSpan, out, rec, tr)
			}
		}
		tr.end(passSpan)
		out.passes++
		elapsed := time.Since(start)
		// Stop when the next pass would end further from the target than
		// this one did, once minPasses are measured.
		if out.passes >= minPasses && elapsed.Seconds()+time.Since(passStart).Seconds()/2 >= seconds {
			break
		}
	}
	out.wall = time.Since(start)
	for _, byProblem := range out.elapsed {
		for _, ms := range byProblem {
			med := median(ms)
			for _, x := range ms {
				out.tail = append(out.tail, x/med)
			}
		}
	}
	return out
}

// cheapOps issues, after problem run op, one sample of the no-work run and
// one edge-batch insertion.
func (s *suiteRun) cheapOps(ctx context.Context, op int64, parent int, out *suiteSamples, rec *runRecord, tr *tracer) {
	sp := tr.begin("gbbs.Engine.Run/noop", parent, op)
	t := time.Now()
	for k := 0; k < 64; k++ {
		if _, err := s.engP.Run(ctx, "bfs", gbbs.Request{Graph: s.tiny}); err != nil {
			rec.fail("noop run: %v", err)
		}
	}
	out.noopUS = append(out.noopUS, float64(time.Since(t))/64e3)
	tr.end(sp)

	const batchEdges = 5000
	n := uint32(s.g.sym.N())
	batch := &gbbs.UpdateBatch{N: int(n), U: make([]uint32, batchEdges), V: make([]uint32, batchEdges), W: make([]int32, batchEdges)}
	for k := range batch.U {
		h := xrand.Hash64(s.e.seed^0xed6e, uint64(op)*batchEdges+uint64(k))
		batch.U[k], batch.V[k], batch.W[k] = uint32(h)%n, uint32(h>>32)%n, 1+int32(h>>60)
	}
	rec.Attempted++
	sp = tr.begin("gbbs.Engine.ApplyEdges", parent, op)
	t = time.Now()
	_, added, err := s.engP.ApplyEdges(ctx, s.g.sym, batch)
	out.ingestMS = append(out.ingestMS, float64(time.Since(t))/1e6)
	tr.end(sp)
	if err != nil || added == 0 {
		rec.fail("ApplyEdges added %d edges: %v", added, err)
	}
}

// perPassSum adds one variant's per-problem times pass by pass, giving the
// quartiles of a sum-of-medians metric something to be taken over.
func perPassSum(byProblem map[string][]float64, passes int) []float64 {
	sums := make([]float64, passes)
	for _, ms := range byProblem {
		for i := 0; i < passes && i < len(ms); i++ {
			sums[i] += ms[i] / 1e3
		}
	}
	return sums
}

// problemMedians returns the per-problem medians (ms) of one variant, over
// problems in order, and their sum.
func problemMedians(byProblem map[string][]float64, problems []string) (sum float64, medians []float64) {
	for _, p := range problems {
		if ms := byProblem[p]; len(ms) > 0 {
			medians = append(medians, median(ms))
			sum += median(ms)
		}
	}
	return sum, medians
}

// suiteMetrics turns one timed phase into the end-to-end metrics.
func (s *suiteRun) suiteMetrics(sm *suiteSamples, o *oracle, ms metricSet) {
	t1, _ := problemMedians(sm.elapsed["t1"], s.problems)
	tp, tpMedians := problemMedians(sm.elapsed["tp"], s.problems)
	q := func(v float64, per []float64) dist {
		q1, _, q3 := quartiles(per)
		return dist{Value: v, Q1: q1, Q3: q3, N: len(per)}
	}
	t1Pass, tpPass := perPassSum(sm.elapsed["t1"], sm.passes), perPassSum(sm.elapsed["tp"], sm.passes)
	ms.setDist("suite_t1_s", q(t1/1e3, t1Pass))
	ms.setDist("suite_tp_s", q(tp/1e3, tpPass))
	speedups := make([]float64, sm.passes)
	for i := range speedups {
		speedups[i] = t1Pass[i] / tpPass[i]
	}
	ms.setDist("suite_speedup", q(t1/tp, speedups))
	ms.setN("suite_tp_geomean_ms", geomean(tpMedians), len(tpMedians))
	var ratios []float64
	for _, p := range oracleProblems {
		if seq, ok := o.seqMS[p]; ok && seq > 0 && len(sm.elapsed["t1"][p]) > 0 {
			ratios = append(ratios, median(sm.elapsed["t1"][p])/seq)
		}
	}
	ms.setN("t1_over_seq_geomean", geomean(ratios), len(ratios))
	ms.setN("req_per_s", float64(sm.runs)/sm.wall.Seconds(), sm.runs)
	ms.setDist("run_tail_p90", summariseAt(sm.tail, 90))
	ms.setDist("noop_p50_us", summarise(sm.noopUS))
	ms.setDist("ingest_p50_ms", summarise(sm.ingestMS))
}

// runSuite is the whole of a suite workload: set-up, checked warm-up, timed
// passes; in a traced run a traced repeat of the passes and the layer ladder.
func runSuite(ctx context.Context, e *env, rec *runRecord) error {
	s, o, err := setupSuite(ctx, e, rec)
	if err != nil {
		return err
	}
	defer s.close()
	if !e.trace {
		sm := s.timedSuite(ctx, e.seconds, 2, rec, nil)
		s.suiteMetrics(sm, o, rec.Metrics)
		rec.Metrics.set("peak_rss_mb", selfPeakRSSMB())
		rec.Info["passes"] = sm.passes
		return nil
	}
	// Traced run: the same passes without and with spans, a fifth of the
	// time each, give the tracing overhead; the ladder gives the layers.
	plain := s.timedSuite(ctx, e.seconds/5, 1, rec, nil)
	traced := s.timedSuite(ctx, e.seconds/5, 1, rec, e.tr)
	tpPlain, _ := problemMedians(plain.elapsed["tp"], s.problems)
	tpTraced, _ := problemMedians(traced.elapsed["tp"], s.problems)
	rec.Metrics.set("trace_overhead_share", tpTraced/tpPlain-1)
	runtime.GC()
	return runLadder(ctx, e, rec, s.spec.graph, s.g, o)
}
