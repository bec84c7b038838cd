package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	"repro/gbbs"
	"repro/gbbs/shard"
	"repro/gbbs/store"
	"repro/internal/bucket"
	"repro/internal/compress"
	"repro/internal/graph"
	"repro/internal/ligra"
	"repro/internal/parallel"
	"repro/internal/prims"
	"repro/internal/xrand"
)

// The ladder is the per-layer half of the benchmark: each probe calls one
// layer's exported functions from outside, on the workload's own graph, and
// reports a median over repetitions. It runs in traced runs only, after the
// workload's phases, so nothing here can disturb an end-to-end number.

// ladder carries what the probes share.
type ladder struct {
	ctx   context.Context
	e     *env
	ms    metricSet
	rec   *runRecord
	sched *parallel.Scheduler // P workers
	eng1  *gbbs.Engine
	engP  *gbbs.Engine
	spec  graphSpec
	g     *suiteGraphs
}

// perCall times f reps times and returns the median nanoseconds of one call;
// f itself loops inner times so that sub-microsecond calls are resolvable.
func perCall(reps, inner int, f func()) float64 {
	return median(timed(reps, nil, f)) / float64(inner)
}

// timed runs f reps times, with prepare (untimed) before each, and returns
// the durations in nanoseconds.
func timed(reps int, prepare, f func()) []float64 {
	ns := make([]float64, reps)
	for i := range ns {
		if prepare != nil {
			prepare()
		}
		start := time.Now()
		f()
		ns[i] = float64(time.Since(start))
	}
	return ns
}

// reps scales a repetition count down for the smoke run.
func (l *ladder) reps(n int) int {
	if l.e.smoke {
		return max(2, n/10)
	}
	return n
}

// span wraps one probe in a trace span named after its layer.
func (l *ladder) span(name string, f func()) {
	sp := l.e.tr.begin("ladder."+name, -1, 0)
	f()
	l.e.tr.end(sp)
}

// runLadder measures every per-layer metric on the graph spec names. g
// holds the already-built variants when the workload has them; o the
// oracle timings when the workload has already taken them.
func runLadder(ctx context.Context, e *env, rec *runRecord, spec graphSpec, g *suiteGraphs, o *oracle) error {
	l := &ladder{
		ctx: ctx, e: e, ms: rec.Metrics, rec: rec, spec: spec,
		sched: parallel.New(e.threads),
		eng1:  gbbs.New(gbbs.WithThreads(1), gbbs.WithSeed(e.seed)),
		engP:  gbbs.New(gbbs.WithThreads(e.threads), gbbs.WithSeed(e.seed)),
	}
	defer l.sched.Close()
	defer l.eng1.Close()
	defer l.engP.Close()

	// Every workload's ladder runs all fifteen problems, so it needs every
	// variant of the graph whatever the workload itself built.
	l.span("gbbs.build", func() {
		build := timed(2, nil, func() {
			full, err := buildSuiteGraphs(ctx, l.engP, suiteSpec{graph: spec, directed: true, compressed: true})
			if err == nil {
				l.g = full
			}
		})
		l.ms.set("gbbs.build_s", median(build)/1e9)
	})
	if l.g == nil {
		return fmt.Errorf("ladder: building %s failed", spec)
	}
	if g != nil {
		l.g.sym = g.sym // probe the very graph the workload ran on
	}

	l.span("parallel", l.probeParallel)
	l.span("prims", l.probePrims)
	l.span("ligra", l.probeLigra)
	l.span("bucket", l.probeBucket)
	l.span("graph", l.probeGraph)
	l.span("core", func() { l.probeCore(o) })
	l.span("gbbs", l.probeGbbs)
	l.span("shard", l.probeShard)
	var err error
	l.span("store", func() { err = l.probeStore() })
	if err != nil {
		return fmt.Errorf("ladder: store: %w", err)
	}
	l.span("serve", func() { err = l.probeServe() })
	if err != nil {
		return fmt.Errorf("ladder: serve: %w", err)
	}

	var mem runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&mem)
	l.ms.set("gc_pause_ms_total", float64(mem.PauseTotalNs)/1e6)
	l.ms.set("heap_live_mb", float64(mem.HeapAlloc)/(1<<20))
	return nil
}

// probeParallel: the scheduler's fixed costs and its streaming rate.
func (l *ladder) probeParallel() {
	s, p := l.sched, l.e.threads
	const calls = 2000
	l.ms.set("parallel.dispatch_ns", perCall(l.reps(20), calls, func() {
		for i := 0; i < calls; i++ {
			s.ForRange(4*p, 1, func(lo, hi int) {})
		}
	}))
	l.ms.set("parallel.do_ns", perCall(l.reps(20), calls, func() {
		for i := 0; i < calls; i++ {
			s.Do(func() {}, func() {})
		}
	}))
	n := 1 << 22
	if l.e.smoke {
		n = 1 << 16
	}
	data := make([]uint32, n)
	for i := range data {
		data[i] = uint32(i)
	}
	var total atomic.Uint64
	l.ms.set("parallel.forrange_ns_per_elem", perCall(l.reps(20), n, func() {
		s.ForRange(n, 0, func(lo, hi int) {
			var sum uint64
			for _, x := range data[lo:hi] {
				sum += uint64(x)
			}
			total.Add(sum)
		})
	}))
}

// probePrims: the sequence primitives at n = m of the workload graph.
func (l *ladder) probePrims() {
	s, n := l.sched, l.g.sym.M()
	keys := make([]uint64, n)
	keys32 := make([]uint32, n)
	for i := range keys {
		h := xrand.Hash64(l.e.seed^0x9a1, uint64(i))
		keys[i] = h & (1<<40 - 1)
		keys32[i] = uint32(h>>40) % uint32(n)
	}
	perElem := func(reps int, prepare, f func()) float64 { return median(timed(l.reps(reps), prepare, f)) / float64(n) }

	out := make([]uint64, n)
	l.ms.set("prims.scan_ns_per_elem", perElem(20, nil, func() { prims.Scan(s, keys, out) }))
	l.ms.set("prims.filter_ns_per_elem", perElem(20, nil, func() { prims.Filter(s, keys, func(k uint64) bool { return k&1 == 0 }) }))
	buf := make([]uint64, n)
	refill := func() { copy(buf, keys) }
	l.ms.set("prims.radixsort_u64_ns_per_elem", perElem(10, refill, func() { prims.RadixSortU64(s, buf, 40) }))
	// slices.Sort on the same keys: the baseline the radix sort has to beat.
	l.ms.set("prims.stdsort_ns_per_elem", perElem(3, refill, func() { slices.Sort(buf) }))
	l.ms.set("prims.histogram_ns_per_elem", perElem(10, nil, func() { prims.Histogram(s, keys32, prims.BitsFor(uint64(n))) }))
	l.ms.set("prims.randperm_ns_per_elem", perElem(10, nil, func() { prims.RandomPermutation(s, n, l.e.seed) }))
}

// probeLigra: edgeMap in each direction and at the small-frontier limit.
func (l *ladder) probeLigra() {
	s, g := l.sched, l.g.sym
	n := g.N()
	perm := prims.RandomPermutation(s, n, l.e.seed^0x11a)
	// Visiting marks a destination with the current epoch, so repetitions
	// need no reset pass and exactly one update per destination wins.
	mark := make([]uint32, n)
	var epoch uint32
	update := func(_, d uint32, _ int32) bool {
		old := atomic.LoadUint32(&mark[d])
		return old != epoch && atomic.CompareAndSwapUint32(&mark[d], old, epoch)
	}
	cond := func(d uint32) bool { return atomic.LoadUint32(&mark[d]) != epoch }
	degreeSum := func(ids []uint32) float64 {
		sum := 0
		for _, v := range ids {
			sum += g.OutDeg(v)
		}
		return float64(max(sum, 1))
	}

	sparse := slices.Clone(perm[:max(1, n/100)])
	edges := degreeSum(sparse)
	before := ligra.Traffic.Load()
	ns := timed(l.reps(20), func() { epoch++ }, func() {
		ligra.EdgeMap(s, g, ligra.FromSparse(n, sparse), update, cond, ligra.Opts{NoDense: true})
	})
	l.ms.set("ligra.edgemap_sparse_ns_per_edge", median(ns)/edges)
	l.ms.set("ligra.sparse_traffic_words_per_edge", float64(ligra.Traffic.Load()-before)/float64(len(ns))/edges)

	flags := make([]bool, n)
	for _, v := range perm[:n/2] {
		flags[v] = true
	}
	ns = timed(l.reps(20), func() { epoch++ }, func() {
		ligra.EdgeMap(s, g, ligra.FromDense(s, flags, n/2), update, cond, ligra.Opts{})
	})
	l.ms.set("ligra.edgemap_dense_ns_per_edge", median(ns)/float64(g.M()))

	small := slices.Clone(perm[:min(64, n)])
	ns = timed(l.reps(50), func() { epoch++ }, func() {
		ligra.EdgeMap(s, g, ligra.FromSparse(n, small), update, cond, ligra.Opts{})
	})
	l.ms.set("ligra.edgemap_small_ns", median(ns))
}

// probeBucket: build Julienne's structure keyed by (capped) degree, drain
// it in order, refiling an eighth of every extracted bucket one bucket up.
func (l *ladder) probeBucket() {
	s, g := l.sched, l.g.sym
	n := g.N()
	const maxBkt = 1023
	key := make([]uint32, n)
	ns := timed(l.reps(5), func() {
		for v := range key {
			key[v] = uint32(min(g.OutDeg(uint32(v)), maxBkt))
		}
	}, func() {
		b := bucket.New(s, n, 0, bucket.Increasing, maxBkt+1, func(i uint32) uint32 { return key[i] })
		for {
			id, ids := b.NextBucket()
			if id == bucket.Nil {
				break
			}
			moved := ids[:len(ids)/8]
			for _, v := range moved {
				key[v] = id + 1
			}
			for _, v := range ids[len(ids)/8:] {
				key[v] = bucket.Nil
			}
			if id < maxBkt {
				b.Update(moved)
			}
		}
	})
	l.ms.set("bucket.cycle_ns_per_id", median(ns)/float64(n))
}

// probeGraph: generation, CSR construction, the checked binary format, the
// update path's two kernels, and the parallel-byte encoder.
func (l *ladder) probeGraph() {
	s, csr := l.sched, l.g.sym
	var el *graph.EdgeList
	l.ms.set("gen.edges_s", median(timed(l.reps(5), nil, func() { el = l.spec.edges(s) }))/1e9)
	var work *graph.EdgeList
	l.ms.set("graph.build_csr_s", median(timed(l.reps(5), func() { work = graph.CopyEdgeList(s, el) }, func() {
		graph.FromEdgeList(s, work.N, work, graph.BuildOptions{Symmetrize: true})
	}))/1e9)

	var file bytes.Buffer
	ns := timed(l.reps(5), file.Reset, func() {
		if err := graph.WriteBinaryChecked(&file, csr); err != nil {
			l.rec.fail("WriteBinaryChecked: %v", err)
		}
	})
	mb := float64(file.Len()) / 1e6
	l.ms.set("graph.write_checked_mb_per_s", mb/(median(ns)/1e9))
	ns = timed(l.reps(5), nil, func() {
		back, err := graph.ReadBinaryChecked(s, bytes.NewReader(file.Bytes()))
		if err != nil || back.M() != csr.M() {
			l.rec.fail("ReadBinaryChecked: %v", err)
		}
	})
	l.ms.set("graph.read_checked_mb_per_s", mb/(median(ns)/1e9))

	batchNo := 0
	var batch *graph.EdgeList
	var overlay graph.Graph
	ns = timed(l.reps(20), func() { batchNo++; batch = l.batch(batchNo, csr) }, func() {
		overlay, _ = graph.ApplyEdges(s, csr, batch)
	})
	l.ms.set("graph.apply_edges_ms", median(ns)/1e6)
	if ov, ok := overlay.(*graph.Overlay); ok {
		l.ms.set("graph.merge_csr_ms", median(timed(l.reps(5), nil, func() { ov.Compact(s) }))/1e6)
	} else {
		l.rec.fail("ApplyEdges returned %T, want an overlay", overlay)
	}

	var enc *compress.Graph
	l.ms.set("compress.encode_s", median(timed(l.reps(5), nil, func() { enc = compress.FromCSR(s, csr, 0) }))/1e9)
	l.ms.set("compress.bytes_per_edge", enc.BytesPerEdge())
}

// batch is the i-th probe batch of 5000 random edges for g, weighted to
// match it.
func (l *ladder) batch(i int, g graph.Graph) *graph.EdgeList {
	size := 5000
	if l.e.smoke {
		size = 200
	}
	n := uint32(g.N())
	b := &graph.EdgeList{N: g.N(), U: make([]uint32, size), V: make([]uint32, size)}
	if g.Weighted() {
		b.W = make([]int32, size)
	}
	for k := range b.U {
		h := xrand.Hash64(l.e.seed^0x1add, uint64(i)<<24|uint64(k))
		b.U[k], b.V[k] = uint32(h)%n, uint32(h>>32)%n
		if b.W != nil {
			b.W[k] = 1 + int32(h>>60)
		}
	}
	return b
}

// probeCore: every suite problem at 1 and P threads with its allocation
// volume, the compressed column, and the work-efficiency ratios.
func (l *ladder) probeCore(o *oracle) {
	const reps = 2 // a problem takes up to half a second; the traced run has a minute for everything
	results := make(map[string]gbbs.Result)
	t1 := make(map[string]float64)
	var compressedSum float64
	for _, p := range suiteProblems {
		a, _ := gbbs.Lookup(p)
		var g gbbs.Graph = l.g.sym
		if a.Directed {
			g = l.g.dir
		}
		run := func(eng *gbbs.Engine, g gbbs.Graph) (ms, allocMB []float64) {
			for i := 0; i < reps; i++ {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				res, err := eng.Run(l.ctx, p, gbbs.Request{Graph: g, Source: l.g.src, Seed: &l.e.seed})
				runtime.ReadMemStats(&after)
				l.rec.Attempted++
				if err != nil {
					l.rec.fail("ladder %s: %v", p, err)
					continue
				}
				results[p] = res
				ms = append(ms, float64(res.Elapsed)/1e6)
				allocMB = append(allocMB, float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
			}
			return
		}
		tp, alloc := run(l.engP, g)
		one, _ := run(l.eng1, g)
		t1[p] = median(one)
		l.ms.setDist("core."+p+".tp_ms", summarise(tp))
		l.ms.setDist("core."+p+".t1_ms", summarise(one))
		l.ms.setDist("core."+p+".alloc_mb", summarise(alloc))
		if !a.Directed {
			comp, _ := run(l.engP, l.g.comp)
			compressedSum += median(comp)
		}
	}
	l.ms.set("compress.suite_tp_s", compressedSum/1e3)
	if o == nil {
		var errs []error
		o, errs = checkSuite(l.sched, l.g.sym, l.g.dir, l.g.src, results)
		for _, err := range errs {
			l.rec.fail("ladder: %v", err)
		}
	}
	for _, p := range oracleProblems {
		l.ms.set("core."+p+".t1_over_seq", t1[p]/o.seqMS[p])
	}
}

// probeGbbs: what the public engine adds around an algorithm.
func (l *ladder) probeGbbs() {
	tiny, err := l.engP.Build(l.ctx, gbbs.Path(2), gbbs.Symmetrize())
	if err != nil {
		l.rec.fail("building the 2-vertex path: %v", err)
		return
	}
	const calls = 1000
	l.ms.set("gbbs.run_overhead_us", perCall(l.reps(20), calls, func() {
		for i := 0; i < calls; i++ {
			l.engP.Run(l.ctx, "bfs", gbbs.Request{Graph: tiny}) //nolint:errcheck // checked once in every suite pass
		}
	})/1e3)
	bfs, _ := gbbs.Lookup("bfs")
	req := gbbs.Request{
		Input:  &gbbs.InputSpec{Source: l.spec.source(), Transforms: []gbbs.Transform{gbbs.Symmetrize(), gbbs.PaperWeights(graphSeed)}},
		Source: 5, Seed: &l.e.seed,
	}
	l.ms.set("gbbs.key_us", perCall(l.reps(20), calls, func() {
		for i := 0; i < calls; i++ {
			req.Key(bfs) //nolint:errcheck // a valid request by construction
		}
	})/1e3)
	// New + first parallel loop + Close: the cost the old harness folded
	// into every number by timing one run on a fresh engine.
	l.ms.set("gbbs.engine_new_close_us", median(timed(l.reps(50), nil, func() {
		eng := gbbs.New(gbbs.WithThreads(l.e.threads))
		eng.Exec(l.ctx, func(b *gbbs.Builder) { b.Parallel(1<<16, func(lo, hi int) {}) }) //nolint:errcheck // background context
		eng.Close()
	}))/1e3)
}

// probeShard: connectivity split in two, against core.cc.tp_ms.
func (l *ladder) probeShard() {
	var split, run, merge []float64
	for i := 0; i < l.reps(3); i++ {
		start := time.Now()
		co, err := shard.NewCoordinator(l.ctx, l.engP, l.g.sym, gbbs.Partition{Shards: 2, By: gbbs.ByHash},
			shard.WithShardThreads(max(1, l.e.threads/2)), shard.WithSeed(l.e.seed))
		if err != nil {
			l.rec.fail("shard split: %v", err)
			return
		}
		split = append(split, float64(time.Since(start))/1e6)
		start = time.Now()
		_, rep, err := co.Run(l.ctx, "cc", gbbs.Request{Seed: &l.e.seed})
		run = append(run, float64(time.Since(start))/1e6)
		co.Close()
		if err != nil {
			l.rec.fail("sharded cc: %v", err)
			return
		}
		merge = append(merge, float64(rep.MergeElapsed)/1e6)
	}
	l.ms.set("shard.cc_k2.split_ms", median(split))
	l.ms.set("shard.cc_k2.run_ms", median(run))
	l.ms.set("shard.cc_k2.merge_ms", median(merge))
}

// probeStore: the versioned store's update path in memory and on disk,
// compaction, recovery, and the canonical-labelling check of incrcc.
func (l *ladder) probeStore() error {
	ctx, base := l.ctx, l.g.sym
	mem := store.New(store.Config{})
	if _, err := mem.Create("g", base, l.spec.String()); err != nil {
		return err
	}
	var apply, compact []float64
	noncanonical := 0
	batchNo := 1000
	delta := 0
	// Apply until a compaction has been seen (a quarter of the base, so a
	// few dozen batches at most) and at least twenty batches are timed.
	for i := 0; i < 400 && (len(compact) == 0 || len(apply) < l.reps(20)); i++ {
		batchNo++
		b := l.batch(batchNo, base)
		start := time.Now()
		snap, _, err := mem.ApplyEdges(ctx, l.engP, "g", b)
		ms := float64(time.Since(start)) / 1e6
		if err != nil {
			return err
		}
		now := 0
		if ov, ok := snap.Graph.(*gbbs.Overlay); ok {
			now = ov.DeltaM()
		}
		if now == 0 && delta > 0 {
			compact = append(compact, ms)
		} else {
			apply = append(apply, ms)
		}
		delta = now
		if i%8 == 0 {
			// incrcc on the stored state at 1 and P threads: both must be
			// the partition cc finds; labels that are not the canonical
			// minimum-id form are the known divergence, counted not failed.
			for _, eng := range []*gbbs.Engine{l.eng1, l.engP} {
				res, err := eng.Run(ctx, "incrcc", gbbs.Request{Graph: snap.Graph, Incr: mem.CCState("g", snap.Version)})
				if err != nil {
					return err
				}
				labels := res.Value.([]uint32)
				if !canonicalLabels(labels) {
					noncanonical++
				}
				mem.SaveCC("g", snap.Version, labels)
			}
		}
	}
	l.ms.setDist("store.apply_ms", summarise(apply))
	l.ms.setDist("store.compact_ms", summarise(compact))
	l.ms.set("store.incrcc_noncanonical", float64(noncanonical))

	dir, err := dataDirIn(l.e.work)
	if err != nil {
		return err
	}
	fs := newTimingFS(nil)
	disk := store.New(store.Config{DataDir: dir, FS: fs})
	if _, err := disk.Create("g", base, l.spec.String()); err != nil {
		return err
	}
	fs.syncTimes()
	written, syncs := fs.written.Load(), fs.syncs.Load()
	var durable []float64
	// Stay below the compaction threshold: a compaction rewrites the
	// snapshot, which is store.compact_ms's business, not the WAL's.
	batches := min(l.reps(20), base.M()/(4*2*5000))
	batches = max(batches, 2)
	for i := 0; i < batches; i++ {
		batchNo++
		b := l.batch(batchNo, base)
		start := time.Now()
		if _, _, err := disk.ApplyEdges(ctx, l.engP, "g", b); err != nil {
			return err
		}
		durable = append(durable, float64(time.Since(start))/1e6)
	}
	l.ms.setDist("store.apply_durable_ms", summarise(durable))
	l.ms.set("store.wal_bytes_per_batch", float64(fs.written.Load()-written)/float64(batches))
	l.ms.set("store.fsyncs_per_batch", float64(fs.syncs.Load()-syncs)/float64(batches))
	l.ms.setDist("store.fsync_ms", summarise(fs.syncTimes()))

	recovered := store.New(store.Config{DataDir: dir, FS: fs})
	start := time.Now()
	report, err := recovered.Recover(ctx, l.engP)
	l.ms.set("store.recover_s", time.Since(start).Seconds())
	if err != nil {
		return err
	}
	want, _ := disk.Get("g")
	if got, ok := recovered.Get("g"); !ok || got.Version != want.Version || got.Graph.M() != want.Graph.M() {
		l.rec.fail("recovery: got %+v, want version %d with %d edges", report, want.Version, want.Graph.M())
	}
	return nil
}
