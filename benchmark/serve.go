package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/gbbs"
	"repro/gbbs/serve"
	"repro/internal/seqref"
)

// serveSizes are the input sizes of the serving workloads.
type serveSizes struct {
	mixedScale  int // resident graph of serve-mixed (factor 16)
	missScale   int // never-seen graphs of serve-mixed
	updateScale int // stored graph of serve-update (factor 8)
	batchEdges  int // edges per update batch
	batchEvery  time.Duration
	verifyEvery int // serve-update: check incrcc against cc after every n-th batch
}

func serveSizesFor(smoke bool) serveSizes {
	if smoke {
		return serveSizes{mixedScale: 10, missScale: 8, updateScale: 10, batchEdges: 200, batchEvery: 5 * time.Millisecond, verifyEvery: 5}
	}
	// One 5000-edge batch every 50 ms: 400 batches in a 20 s run, which
	// triples the stored graph and compacts it a handful of times.
	return serveSizes{mixedScale: 15, missScale: 13, updateScale: 16, batchEdges: 5000, batchEvery: 50 * time.Millisecond, verifyEvery: 50}
}

// serveOptsFor is the daemon configuration of a serving workload. The
// graph cache is smaller than the never-seen graphs a run builds, so LRU
// eviction is in steady state; the result cache holds the warmed
// fingerprints with room to spare but far fewer entries than the fresh runs
// produce, so it evicts continuously too.
func serveOptsFor(e *env) serveOpts {
	return serveOpts{threads: e.threads, cacheMB: 64, resultCacheMB: 16}
}

// reference is the benchmark's own copy of a graph the daemon serves: what
// daemon answers are checked against and what the sequential baselines of
// t1_over_seq run on.
type reference struct {
	eng   *gbbs.Engine
	g     gbbs.Graph
	srcs  []uint32           // vertices of the largest component, at most 4096
	seqMS map[string]float64 // algorithm -> median sequential time
}

func buildReference(ctx context.Context, threads int, source string, transforms []string, seqAlgos []string) (*reference, error) {
	src, err := gbbs.ParseSource(source)
	if err != nil {
		return nil, err
	}
	var tfs []gbbs.Transform
	for _, t := range transforms {
		parsed, err := gbbs.ParseTransforms(t)
		if err != nil {
			return nil, err
		}
		tfs = append(tfs, parsed...)
	}
	r := &reference{eng: gbbs.New(gbbs.WithThreads(threads)), seqMS: make(map[string]float64)}
	if r.g, err = r.eng.Build(ctx, src, tfs...); err != nil {
		r.eng.Close()
		return nil, err
	}
	labels := seqref.Components(r.g)
	size := make(map[uint32]int)
	best := labels[0]
	for _, l := range labels {
		size[l]++
		if size[l] > size[best] {
			best = l
		}
	}
	for v, l := range labels {
		if l == best && len(r.srcs) < 4096 {
			r.srcs = append(r.srcs, uint32(v))
		}
	}
	for _, a := range seqAlgos {
		switch a {
		case "bfs":
			r.seqMS[a] = timeSeq(func() { seqref.BFS(r.g, r.srcs[0]) })
		case "cc", "incrcc":
			r.seqMS[a] = timeSeq(func() { seqref.Components(r.g) })
		case "kcore":
			r.seqMS[a] = timeSeq(func() { seqref.Coreness(r.g) })
		}
	}
	return r, nil
}

// runReply is the part of a RunResponse the client reads.
type runReply struct {
	ResultCache string `json:"result_cache"`
	Result      struct {
		Summary string          `json:"summary"`
		Value   json.RawMessage `json:"value"`
		Elapsed int64           `json:"elapsed_ns"`
	} `json:"result"`
}

// valueHash fingerprints a JSON value independent of its indentation.
func valueHash(raw []byte) uint64 {
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		return 0
	}
	h := fnv.New64a()
	h.Write(buf.Bytes())
	return h.Sum64()
}

// answer is what one reply said, kept for checking after the timed phase.
type answer struct {
	body     []byte // the request
	summary  string
	hasValue bool
	value    uint64 // valueHash of the value, when the request asked for it
}

func answerOf(body []byte, rep *runReply) answer {
	a := answer{body: body, summary: rep.Result.Summary}
	if len(rep.Result.Value) > 0 {
		a.hasValue, a.value = true, valueHash(rep.Result.Value)
	}
	return a
}

// execKey is one latency class of algorithm-executing requests: what the
// per-problem medians and the normalised tail are taken over.
type execKey struct {
	algo    string
	threads int
	value   bool
}

// lane is what one closed-loop client measured; lanes are merged after the
// phase so the clients share nothing while it runs.
type lane struct {
	lat       map[string][]float64  // class -> latency ms
	exec      map[execKey][]float64 // run_miss latencies by class
	checks    []answer              // sampled replies to verify afterwards
	hot       map[int]answer        // first reply seen per warmed fingerprint
	attempted int
	failures  []string
	lastDelta int // update: overlay size after the previous batch
	ops       int // operations completed
}

func newLane() *lane {
	return &lane{lat: make(map[string][]float64), exec: make(map[execKey][]float64), hot: make(map[int]answer)}
}

func (l *lane) fail(format string, args ...any) {
	l.failures = append(l.failures, fmt.Sprintf(format, args...))
}

func (l *lane) merge(o *lane) {
	for k, v := range o.lat {
		l.lat[k] = append(l.lat[k], v...)
	}
	for k, v := range o.exec {
		l.exec[k] = append(l.exec[k], v...)
	}
	for k, v := range o.hot {
		if _, ok := l.hot[k]; !ok {
			l.hot[k] = v
		}
	}
	l.checks = append(l.checks, o.checks...)
	l.attempted += o.attempted
	l.failures = append(l.failures, o.failures...)
	l.ops += o.ops
}

// issue sends one scripted operation and records what came back.
func (l *lane) issue(c *client, o op, opID int64) {
	l.attempted++
	root := c.tr.begin("client."+o.Class, -1, opID)
	defer c.tr.end(root)
	start := time.Now()
	switch o.Class {
	case classJob:
		l.issueJob(c, o, root, opID, start)
		return
	case classUpdate:
		l.issueUpdate(c, o, root, opID, start)
		return
	}
	status, reply, err := c.do(o.Method, o.Path, o.Body, root, opID)
	ms := float64(time.Since(start)) / 1e6
	if err != nil || status != http.StatusOK {
		l.fail("%s %s: status %d err %v: %s", o.Class, o.Algo, status, err, lastBytes(reply, 200))
		return
	}
	var rep runReply
	if err := json.Unmarshal(reply, &rep); err != nil {
		l.fail("%s %s: undecodable reply: %v", o.Class, o.Algo, err)
		return
	}
	l.ops++
	ans := answerOf(o.Body, &rep)
	switch {
	case o.Class == classRunHit && rep.ResultCache == "hit":
		// Hits that carry the O(n) value are dominated by its encoding;
		// the summary-only ones are the fixed cost of a request.
		if ans.hasValue {
			l.lat["run_hit_value"] = append(l.lat["run_hit_value"], ms)
		} else {
			l.lat[classRunHit] = append(l.lat[classRunHit], ms)
		}
		if first, ok := l.hot[o.HotIdx]; !ok {
			l.hot[o.HotIdx] = ans
		} else if first.summary != ans.summary || first.value != ans.value {
			l.fail("run_hit %s: reply differs from the first reply for the same fingerprint", o.Algo)
		}
	case o.Class == classRunHit:
		// The warmed entry was evicted and the request executed. Not an
		// error, but not a hit either: kept out of both latency classes.
		l.lat["run_hit_evicted"] = append(l.lat["run_hit_evicted"], ms)
	case rep.ResultCache != "miss":
		l.fail("%s %s: expected an execution, got result_cache=%q", o.Class, o.Algo, rep.ResultCache)
	default:
		l.lat[o.Class] = append(l.lat[o.Class], ms)
		if o.Class == classRunMiss {
			k := execKey{o.Algo, o.Threads, ans.hasValue}
			l.exec[k] = append(l.exec[k], ms)
		}
		if len(l.lat[o.Class])%8 == 1 {
			l.checks = append(l.checks, ans)
		}
	}
}

// issueJob submits an async job, polls it to completion and fetches the
// result; the latency is submit to result body.
func (l *lane) issueJob(c *client, o op, root int, opID int64, start time.Time) {
	status, reply, err := c.do(o.Method, o.Path, o.Body, root, opID)
	var st serve.JobStatus
	if err != nil || (status != http.StatusAccepted && status != http.StatusOK) || json.Unmarshal(reply, &st) != nil {
		l.fail("job submit %s: status %d err %v", o.Algo, status, err)
		return
	}
	polls := 0
	for st.State != serve.JobDone && st.State != serve.JobFailed {
		if polls > 0 {
			time.Sleep(time.Millisecond)
		}
		polls++
		status, reply, err = c.do("GET", "/v1/jobs/"+st.ID, nil, root, opID)
		if err != nil || status != http.StatusOK || json.Unmarshal(reply, &st) != nil {
			l.fail("job poll %s: status %d err %v", st.ID, status, err)
			return
		}
		if time.Since(start) > 30*time.Second {
			l.fail("job %s still %s after 30s", st.ID, st.State)
			return
		}
	}
	status, reply, err = c.do("GET", "/v1/jobs/"+st.ID+"/result", nil, root, opID)
	ms := float64(time.Since(start)) / 1e6
	var rep runReply
	if err != nil || status != http.StatusOK || json.Unmarshal(reply, &rep) != nil {
		l.fail("job result %s (%s): status %d err %v: %s", st.ID, st.State, status, err, lastBytes(reply, 200))
		return
	}
	l.ops++
	l.lat[classJob] = append(l.lat[classJob], ms)
	if len(l.lat[classJob])%8 == 1 {
		l.checks = append(l.checks, answerOf(o.Body, &rep))
	}
}

// issueUpdate posts one edge batch. A batch after which the overlay is
// empty again is one that compacted.
func (l *lane) issueUpdate(c *client, o op, root int, opID int64, start time.Time) {
	status, reply, err := c.do(o.Method, o.Path, o.Body, root, opID)
	ms := float64(time.Since(start)) / 1e6
	var rep serve.EdgeBatchResponse
	if err != nil || status != http.StatusOK || json.Unmarshal(reply, &rep) != nil {
		l.fail("update: status %d err %v: %s", status, err, lastBytes(reply, 200))
		return
	}
	if rep.Added == 0 {
		l.fail("update: batch added no edges")
		return
	}
	l.ops++
	l.lat[classUpdate] = append(l.lat[classUpdate], ms)
	if rep.Graph.DeltaEdges == 0 && l.lastDelta > 0 {
		l.lat["update_compacting"] = append(l.lat["update_compacting"], ms)
	}
	l.lastDelta = rep.Graph.DeltaEdges
}

// serveRun is one serving workload in flight.
type serveRun struct {
	e     *env
	sizes serveSizes
	opts  serveOpts
	ref   *reference
	tgt   *target
	mixed *mixedGen  // serve-mixed
	read  *readerGen // serve-update
	n     uint32     // serve-update: vertices of the stored graph
	// phase offsets the script indices so that a second phase against the
	// same server never repeats a first-phase fingerprint.
	phase   int
	batches [][]byte // serve-update: every batch sent, for the final check
}

func (s *serveRun) update() bool { return s.e.workload == "serve-update" }

// resident is the workload's resident graph and the transforms the daemon
// builds it with.
func (s *serveRun) resident() (graphSpec, []string) {
	if s.update() {
		return graphSpec{rmatScale: s.sizes.updateScale, rmatFactor: 8, seed: graphSeed}, []string{"sym"}
	}
	return graphSpec{rmatScale: s.sizes.mixedScale, rmatFactor: 16, seed: graphSeed}, []string{"sym", fmt.Sprintf("paperweights:seed=%d", graphSeed)}
}

// boot starts a server and brings it to the state the timed phase starts
// from: graph resident, hot fingerprints warm. This is what setup_s times.
func (s *serveRun) boot(ctx context.Context, start func(serveOpts) (*target, error)) (*target, error) {
	opts := s.opts
	if s.update() {
		dir, err := dataDirIn(s.e.work)
		if err != nil {
			return nil, err
		}
		opts.dataDir = dir
	}
	sp := s.e.tr.begin("gbbs-serve.boot", -1, 0)
	tgt, err := start(opts)
	s.e.tr.end(sp)
	if err != nil {
		return nil, err
	}
	c := newClient(tgt, nil)
	defer c.close()
	sp = s.e.tr.begin("gbbs-serve.preload", -1, 0)
	defer s.e.tr.end(sp)
	spec, transforms := s.resident()
	if s.update() {
		if err := c.postJSON("PUT", "/v1/graphs/g", serve.GraphCreateRequest{Source: spec.String(), Transforms: transforms}, nil); err != nil {
			tgt.stop()
			return nil, err
		}
		// The first incrcc seeds the store's connectivity state; the hot
		// fingerprint lives on a small unrelated graph no update touches.
		warm := []serve.RunRequest{{Graph: "g", Algorithm: "incrcc"}, s.read.hot}
		for _, req := range warm {
			if err := c.postJSON("POST", "/v1/run", req, nil); err != nil {
				tgt.stop()
				return nil, err
			}
		}
		return tgt, nil
	}
	for _, req := range s.mixed.hot {
		if err := c.postJSON("POST", "/v1/run", req, nil); err != nil {
			tgt.stop()
			return nil, err
		}
	}
	return tgt, nil
}

// timedServe drives the closed-loop clients for seconds and returns the
// merged samples and the wall time of the phase.
func (s *serveRun) timedServe(ctx context.Context, seconds float64, tr *tracer) (*lane, time.Duration) {
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	offset := s.phase * 1_000_000
	s.phase++
	var opSeq atomic.Int64
	lanes := []*lane{newLane(), newLane()}
	var wg sync.WaitGroup
	start := time.Now()
	if s.update() {
		writer, reader := newClient(s.tgt, tr), newClient(s.tgt, tr)
		defer writer.close()
		defer reader.close()
		var writerDone atomic.Bool
		wg.Add(2)
		//gbbs:lint-allow nakedgo closed-loop load-generator client (the writer); ends at the phase deadline and is waited for below
		go func() {
			defer wg.Done()
			defer writerDone.Store(true)
			for i := 0; time.Now().Before(deadline) && ctx.Err() == nil; i++ {
				body := edgeBatch(s.e.seed, offset+i, s.n, s.sizes.batchEdges)
				// Paced: batch i is due i intervals into the phase, so the
				// stored graph grows along the same trajectory in every
				// run. A writer that cannot keep up sends back to back.
				time.Sleep(time.Until(start.Add(time.Duration(i) * s.sizes.batchEvery)))
				s.batches = append(s.batches, body)
				lanes[0].issue(writer, op{Class: classUpdate, Method: "POST", Path: "/v1/graphs/g/edges", Body: body}, opSeq.Add(1))
				if (i+1)%s.sizes.verifyEvery == 0 {
					s.checkIncrCC(writer, lanes[0])
				}
			}
		}()
		//gbbs:lint-allow nakedgo closed-loop load-generator client (the reader); runs until the writer finishes and is waited for below
		go func() {
			defer wg.Done()
			for i := 0; !writerDone.Load() && ctx.Err() == nil; i++ {
				lanes[1].issue(reader, s.read.op(offset+i), opSeq.Add(1))
			}
		}()
	} else {
		// One client per tenant, never more than the sandbox has CPUs.
		clients := min(2, s.e.threads)
		for k := 0; k < clients; k++ {
			c := newClient(s.tgt, tr)
			defer c.close()
			wg.Add(1)
			//gbbs:lint-allow nakedgo closed-loop load-generator client; ends at the phase deadline and is waited for below
			go func(k int, c *client) {
				defer wg.Done()
				for i := 0; time.Now().Before(deadline) && ctx.Err() == nil; i++ {
					lanes[k].issue(c, s.mixed.op(k, offset+i), opSeq.Add(1))
				}
			}(k, c)
		}
	}
	wg.Wait()
	wall := time.Since(start)
	lanes[0].merge(lanes[1])
	return lanes[0], wall
}

// checkIncrCC asks for the full incrcc and cc labellings of the stored
// graph's current version and requires them to be the same partition.
// Labels that are a correct partition but not the canonical minimum-id form
// are the known thread-count-dependent incrcc divergence: counted under
// "incrcc_noncanonical", not failed, so the gate does not flake on it.
func (s *serveRun) checkIncrCC(c *client, l *lane) {
	labels := func(algo string) []uint32 {
		l.attempted++
		var rep struct {
			Result struct {
				Value []uint32 `json:"value"`
			} `json:"result"`
		}
		req := serve.RunRequest{Graph: "g", Algorithm: algo, IncludeValue: true, Tenant: "gold"}
		if err := c.postJSON("POST", "/v1/run", req, &rep); err != nil {
			l.fail("verify %s: %v", algo, err)
			return nil
		}
		l.ops++
		return rep.Result.Value
	}
	incr, cc := labels("incrcc"), labels("cc")
	if incr == nil || cc == nil {
		return
	}
	if len(incr) != len(cc) || !seqref.SamePartition(incr, cc) {
		l.fail("incrcc and cc disagree as partitions")
		return
	}
	if !canonicalLabels(incr) {
		l.lat["incrcc_noncanonical"] = append(l.lat["incrcc_noncanonical"], 1)
	}
	l.lat[classVerify] = append(l.lat[classVerify], 1)
}

// verify re-executes sampled requests in process and compares answers.
func (s *serveRun) verify(ctx context.Context, l *lane, rec *runRecord) {
	const maxChecks = 48
	step := max(1, len(l.checks)/maxChecks)
	for i := 0; i < len(l.checks); i += step {
		a := l.checks[i]
		var req serve.RunRequest
		if err := json.Unmarshal(a.body, &req); err != nil {
			rec.fail("verify: %v", err)
			continue
		}
		if req.Graph != "" {
			continue // the stored graph has moved on; checked by checkIncrCC and the final state check
		}
		rec.Attempted++
		g := s.ref.g
		if spec, _ := s.resident(); req.Source != spec.String() {
			src, err := gbbs.ParseSource(req.Source)
			if err == nil {
				g, err = s.ref.eng.Build(ctx, src)
			}
			if err != nil {
				rec.fail("verify: building %s: %v", req.Source, err)
				continue
			}
		}
		res, err := s.ref.eng.Run(ctx, req.Algorithm, gbbs.Request{Graph: g, Source: req.Src, Seed: req.Seed, Opts: req.Opts})
		if err != nil {
			rec.fail("verify: %s in process: %v", req.Algorithm, err)
			continue
		}
		if res.Summary != a.summary {
			rec.fail("%s src=%d: daemon said %q, in-process run says %q", req.Algorithm, req.Src, a.summary, res.Summary)
			continue
		}
		if a.hasValue {
			want, err := json.Marshal(res.Value)
			if err != nil || valueHash(want) != a.value {
				rec.fail("%s src=%d: daemon's value differs from the in-process run's", req.Algorithm, req.Src)
			}
		}
	}
	if s.update() {
		s.verifyFinalState(ctx, rec)
	}
}

// verifyFinalState rebuilds the stored graph's final version in process —
// the initial graph plus every batch sent — and requires the daemon's edge
// count and a full BFS to match it.
func (s *serveRun) verifyFinalState(ctx context.Context, rec *runRecord) {
	rec.Attempted++
	all := &gbbs.UpdateBatch{N: int(s.n)}
	for _, body := range s.batches {
		var b serve.EdgeBatchRequest
		if err := json.Unmarshal(body, &b); err != nil {
			rec.fail("final state: %v", err)
			return
		}
		for _, e := range b.Edges {
			all.U, all.V = append(all.U, uint32(e[0])), append(all.V, uint32(e[1]))
		}
	}
	final, _, err := s.ref.eng.ApplyEdges(ctx, s.ref.g, all)
	if err != nil {
		rec.fail("final state: applying %d edges in process: %v", all.Len(), err)
		return
	}
	c := newClient(s.tgt, nil)
	defer c.close()
	var rep struct {
		Graph  serve.GraphInfo `json:"graph"`
		Result struct {
			Value []uint32 `json:"value"`
		} `json:"result"`
	}
	src := s.ref.srcs[0]
	if err := c.postJSON("POST", "/v1/run", serve.RunRequest{Graph: "g", Algorithm: "bfs", Src: src, IncludeValue: true}, &rep); err != nil {
		rec.fail("final state: %v", err)
		return
	}
	if rep.Graph.M != final.M() {
		rec.fail("final state: daemon has %d edges, in-process rebuild has %d", rep.Graph.M, final.M())
		return
	}
	if !slices.Equal(rep.Result.Value, seqref.BFS(final, src)) {
		rec.fail("final state: daemon's BFS differs from the in-process rebuild's")
	}
}

// serveMetrics turns one timed phase into the end-to-end metrics.
func (s *serveRun) serveMetrics(l *lane, wall time.Duration, ms metricSet) {
	algos := missAlgos
	if s.update() {
		algos = []string{"incrcc", "bfs"}
	}
	// A problem's latency at a thread count is the median over its requests
	// that returned only the summary — the O(n) value encoding is a
	// different cost, kept out of the algorithm columns.
	var t1, tp float64
	var tpMedians, ratios []float64
	samples := 0
	for _, a := range algos {
		one, many := l.exec[execKey{a, 1, false}], l.exec[execKey{a, s.e.threads, false}]
		if len(one) == 0 || len(many) == 0 {
			continue // too short a run to have drawn this class; the driver line rejects the gap
		}
		m1, mp := median(one), median(many)
		t1, tp = t1+m1, tp+mp
		tpMedians = append(tpMedians, mp)
		samples += len(one) + len(many)
		if seq := s.ref.seqMS[a]; seq > 0 {
			ratios = append(ratios, m1/seq)
		}
	}
	ms.setN("suite_t1_s", t1/1e3, samples)
	ms.setN("suite_tp_s", tp/1e3, samples)
	ms.setN("suite_speedup", t1/tp, samples)
	ms.setN("suite_tp_geomean_ms", geomean(tpMedians), len(tpMedians))
	ms.setN("t1_over_seq_geomean", geomean(ratios), len(ratios))
	ms.setN("req_per_s", float64(l.ops)/wall.Seconds(), l.ops)
	var tail []float64
	for _, xs := range l.exec {
		med := median(xs)
		for _, x := range xs {
			tail = append(tail, x/med)
		}
	}
	ms.setDist("run_tail_p90", summariseAt(tail, 90))
	hits := make([]float64, len(l.lat[classRunHit]))
	for i, x := range l.lat[classRunHit] {
		hits[i] = x * 1e3
	}
	ms.setDist("noop_p50_us", summarise(hits))
	ingest := l.lat[classBuildMiss]
	if s.update() {
		ingest = l.lat[classUpdate]
	}
	ms.setDist("ingest_p50_ms", summarise(ingest))
}

// runServe is the whole of a serving workload.
func runServe(ctx context.Context, e *env, rec *runRecord) error {
	s := &serveRun{e: e, sizes: serveSizesFor(e.smoke), opts: serveOptsFor(e)}
	spec, transforms := s.resident()
	source := spec.String()
	seqAlgos := []string{"bfs", "cc", "kcore"}
	if s.update() {
		seqAlgos = []string{"bfs", "incrcc"}
	}
	ref, err := buildReference(ctx, e.threads, source, transforms, seqAlgos)
	if err != nil {
		return fmt.Errorf("building the reference graph: %w", err)
	}
	defer ref.eng.Close()
	s.ref, s.n = ref, uint32(ref.g.N())
	rec.Info["graph"] = map[string]any{"n": ref.g.N(), "m": ref.g.M(), "spec": source}
	if s.update() {
		s.read = &readerGen{seed: e.seed, threads: e.threads, srcs: ref.srcs,
			hot: serve.RunRequest{Source: "rmat:scale=10,factor=16,seed=1", Transforms: []string{"sym"}, Algorithm: "bfs", Threads: 1, Tenant: "bronze"}}
	} else {
		s.mixed = newMixedGen(e.seed, e.threads, source, transforms, s.sizes.missScale, ref.srcs)
	}

	start := func(o serveOpts) (*target, error) { return startDaemon(ctx, e, o) }
	var handlerTracer atomic.Pointer[tracer]
	var fs *timingFS
	if e.trace {
		// Traced runs host the same serve.Server in process so that its
		// handler and its store's filesystem can be wrapped from outside.
		fs = newTimingFS(&handlerTracer)
		start = func(o serveOpts) (*target, error) {
			return startInProcess(o, func(h http.Handler) http.Handler { return spanHandler(&handlerTracer, fs, h) }, fs)
		}
	}
	var setups []float64
	for i := 0; i < e.setupReps(); i++ {
		if s.tgt != nil {
			s.tgt.stop()
		}
		t0 := time.Now()
		if s.tgt, err = s.boot(ctx, start); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer func() { s.tgt.stop() }()
	rec.Metrics.setDist("setup_s", summarise(setups))

	finish := func(l *lane) {
		rec.Attempted += l.attempted
		for _, f := range l.failures {
			rec.fail("%s", f)
		}
		classes := make(map[string]int)
		for k, v := range l.lat {
			classes[k] = len(v)
		}
		rec.Info["requests"] = classes
		s.verify(ctx, l, rec)
	}
	if !e.trace {
		l, wall := s.timedServe(ctx, e.seconds, nil)
		finish(l)
		s.serveMetrics(l, wall, rec.Metrics)
		rec.Metrics.set("peak_rss_mb", s.tgt.peakRSSMB())
		return nil
	}
	// Traced run: the same traffic without and with spans, a fifth of the
	// time each, gives the tracing overhead; the ladder gives the layers.
	plain, plainWall := s.timedServe(ctx, e.seconds/5, nil)
	handlerTracer.Store(e.tr)
	traced, tracedWall := s.timedServe(ctx, e.seconds/5, e.tr)
	handlerTracer.Store(nil)
	plainRate := float64(plain.ops) / plainWall.Seconds()
	tracedRate := float64(traced.ops) / tracedWall.Seconds()
	rec.Metrics.set("trace_overhead_share", plainRate/tracedRate-1)
	plain.merge(traced)
	finish(plain)
	s.tgt.stop()
	s.tgt = &target{stop: func() {}}
	return runLadder(ctx, e, rec, spec, nil, nil)
}

// spanHandler wraps the in-process server: while a tracer is installed it
// records one span per request, parented to the client's round-trip span
// named in the request headers, and tells the filesystem wrapper which span
// store I/O belongs to.
func spanHandler(tr *atomic.Pointer[tracer], fs *timingFS, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t := tr.Load()
		if t == nil {
			next.ServeHTTP(w, r)
			return
		}
		parent, err := strconv.Atoi(r.Header.Get(spanHeader))
		if err != nil {
			parent = -1
		}
		opID, _ := strconv.ParseInt(r.Header.Get(opHeader), 10, 64)
		sp := t.begin("serve.ServeHTTP "+r.Method+" "+routeOf(r.URL.Path), parent, opID)
		if r.Method == "POST" && routeOf(r.URL.Path) == "/v1/graphs/{name}/edges" {
			// One writer, so at most one update is in flight: its handler
			// span is the parent of whatever the store writes meanwhile.
			fs.parent.Store(int64(sp))
			defer fs.parent.Store(-1)
		}
		next.ServeHTTP(w, r)
		t.end(sp)
	})
}
