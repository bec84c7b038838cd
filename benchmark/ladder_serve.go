package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"repro/gbbs"
	"repro/gbbs/serve"
)

// handlerCall drives serve.Server's http.Handler directly — no socket — and
// returns the status, the body and how long ServeHTTP took.
func handlerCall(srv *serve.Server, method, path string, body any) (int, []byte, time.Duration) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(mustJSON(body))
	}
	req := httptest.NewRequest(method, path, rd)
	rec := httptest.NewRecorder()
	start := time.Now()
	srv.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes(), time.Since(start)
}

// probeServe: the serving layer from outside its exported surface — the
// handler in process, the caches, limiter and engine pool as the server
// constructs them, and the same handler over a loopback socket.
func (l *ladder) probeServe() error {
	dir, err := dataDirIn(l.e.work)
	if err != nil {
		return err
	}
	opts := serveOptsFor(l.e)
	srv := serve.New(serve.Config{
		MaxThreads: opts.threads, CacheBytes: opts.cacheMB << 20, ResultCacheBytes: opts.resultCacheMB << 20,
		TenantWeights: tenantWeights, DataDir: dir,
	})
	defer srv.Close()
	transforms := []string{"sym", fmt.Sprintf("paperweights:seed=%d", graphSeed)}
	fresh := uint64(1 << 40)
	run := func(algo string, value bool) serve.RunRequest {
		fresh++
		return serve.RunRequest{Source: l.spec.String(), Transforms: transforms, Algorithm: algo, Src: l.g.src, Threads: 1, Seed: gbbs.Ptr(fresh), IncludeValue: value}
	}
	var replyLen []float64
	mustRun := func(path string, req any, wantCache string) (runReply, time.Duration, error) {
		status, reply, d := handlerCall(srv, "POST", path, req)
		var rep runReply
		if status != http.StatusOK || json.Unmarshal(reply, &rep) != nil {
			return rep, d, fmt.Errorf("POST %s: status %d: %s", path, status, lastBytes(reply, 200))
		}
		if wantCache != "" && rep.ResultCache != wantCache {
			return rep, d, fmt.Errorf("POST %s: result_cache=%q, want %q", path, rep.ResultCache, wantCache)
		}
		replyLen = append(replyLen, float64(len(reply)))
		return rep, d, nil
	}
	if _, _, err := mustRun("/v1/run", run("cc", false), "miss"); err != nil { // preload the graph
		return err
	}

	// Fresh runs: handler time minus the algorithm's own is what the
	// serving layer adds to a miss.
	var overheadUS, missMS []float64
	for i := 0; i < l.reps(60); i++ {
		rep, d, err := mustRun("/v1/run", run(missAlgos[i%len(missAlgos)], false), "miss")
		if err != nil {
			return err
		}
		overheadUS = append(overheadUS, float64(d.Nanoseconds()-rep.Result.Elapsed)/1e3)
		missMS = append(missMS, float64(d)/1e6)
	}
	l.ms.setDist("serve.handler_overhead_us", summarise(overheadUS))
	l.ms.setDist("serve.run_miss_p99_ms", summariseAt(missMS, 99))

	// Hits, summary-only and with the O(n) value; the difference is the
	// value's encoding.
	hotSummary, hotValue := run("bfs", false), run("bfs", true)
	var summaryReply []byte
	hit := func(req serve.RunRequest, n int) (us []float64, size int, err error) {
		if _, _, err := mustRun("/v1/run", req, "miss"); err != nil {
			return nil, 0, err
		}
		for i := 0; i < n; i++ {
			status, reply, d := handlerCall(srv, "POST", "/v1/run", req)
			if status != http.StatusOK {
				return nil, 0, fmt.Errorf("hit: status %d", status)
			}
			us, size = append(us, float64(d)/1e3), len(reply)
			if !req.IncludeValue {
				summaryReply = reply
			}
			replyLen = append(replyLen, float64(len(reply)))
		}
		return us, size, nil
	}
	hitUS, _, err := hit(hotSummary, l.reps(200))
	if err != nil {
		return err
	}
	valueUS, valueBytes, err := hit(hotValue, l.reps(100))
	if err != nil {
		return err
	}
	l.ms.setDist("serve.hit_handler_us", summarise(hitUS))
	hitMS := make([]float64, len(hitUS))
	for i, us := range hitUS {
		hitMS[i] = us / 1e3
	}
	l.ms.setDist("serve.run_hit_p99_ms", summariseAt(hitMS, 99))
	l.ms.set("serve.encode_value_us", median(valueUS)-median(hitUS))
	l.ms.set("serve.encode_value_bytes", float64(valueBytes))
	var decoded serve.RunResponse
	if err := json.Unmarshal(summaryReply, &decoded); err != nil {
		return err
	}
	l.ms.set("serve.encode_summary_us", perCall(l.reps(20), 100, func() {
		for i := 0; i < 100; i++ {
			enc := json.NewEncoder(io.Discard)
			enc.SetIndent("", "  ")
			enc.Encode(decoded) //nolint:errcheck // io.Discard cannot fail
		}
	})/1e3)

	// Never-seen graphs: Engine.Build inside the request.
	missScale := serveSizesFor(l.e.smoke).missScale
	var buildMS []float64
	for i := 0; i < l.reps(10); i++ {
		req := serve.RunRequest{Source: fmt.Sprintf("rmat:scale=%d,factor=16,seed=%d", missScale, 7000+i), Algorithm: "bfs", Threads: 1}
		_, d, err := mustRun("/v1/run", req, "miss")
		if err != nil {
			return err
		}
		buildMS = append(buildMS, float64(d)/1e6)
	}
	l.ms.setDist("serve.build_miss_ms", summarise(buildMS))

	// Async jobs: submit, poll until done, fetch.
	var jobMS, polls, queued []float64
	for i := 0; i < l.reps(10); i++ {
		start := time.Now()
		status, reply, _ := handlerCall(srv, "POST", "/v1/jobs", run(missAlgos[i%len(missAlgos)], false))
		var st serve.JobStatus
		if (status != http.StatusAccepted && status != http.StatusOK) || json.Unmarshal(reply, &st) != nil {
			return fmt.Errorf("job submit: status %d", status)
		}
		n := 0
		for st.State != serve.JobDone && st.State != serve.JobFailed && time.Since(start) < 30*time.Second {
			if n > 0 {
				time.Sleep(time.Millisecond)
			}
			n++
			_, reply, _ = handlerCall(srv, "GET", "/v1/jobs/"+st.ID, nil)
			if err := json.Unmarshal(reply, &st); err != nil {
				return err
			}
		}
		if status, _, _ = handlerCall(srv, "GET", "/v1/jobs/"+st.ID+"/result", nil); status != http.StatusOK {
			return fmt.Errorf("job %s result: status %d (state %s)", st.ID, status, st.State)
		}
		jobMS = append(jobMS, float64(time.Since(start))/1e6)
		polls = append(polls, float64(n))
		queued = append(queued, float64(st.QueuedMS))
	}
	l.ms.setDist("serve.job.p50_ms", summarise(jobMS))
	l.ms.setDist("serve.job.queued_ms_p50", summarise(queued))
	l.ms.set("serve.job.polls_per_job", mean(polls))

	// Stored graph: two cached results per version, then a batch that has
	// to invalidate exactly those.
	if status, reply, _ := handlerCall(srv, "PUT", "/v1/graphs/g", serve.GraphCreateRequest{Source: l.spec.String(), Transforms: transforms}); status != http.StatusCreated {
		return fmt.Errorf("PUT /v1/graphs/g: status %d: %s", status, lastBytes(reply, 200))
	}
	var updateMS, invalidated []float64
	for i := 0; i < l.reps(20); i++ {
		for k := 0; k < 2; k++ {
			fresh++
			if _, _, err := mustRun("/v1/run", serve.RunRequest{Graph: "g", Algorithm: "bfs", Src: l.g.src, Threads: 1, Seed: gbbs.Ptr(fresh)}, "miss"); err != nil {
				return err
			}
		}
		b := l.batch(5000+i, l.g.sym)
		edges := make([][]int64, b.Len())
		for k := range edges {
			edges[k] = []int64{int64(b.U[k]), int64(b.V[k]), int64(b.W[k])}
		}
		status, reply, d := handlerCall(srv, "POST", "/v1/graphs/g/edges", serve.EdgeBatchRequest{Edges: edges})
		var rep serve.EdgeBatchResponse
		if status != http.StatusOK || json.Unmarshal(reply, &rep) != nil {
			return fmt.Errorf("edge batch: status %d: %s", status, lastBytes(reply, 200))
		}
		updateMS = append(updateMS, float64(d)/1e6)
		invalidated = append(invalidated, float64(rep.InvalidatedResults))
	}
	l.ms.setDist("serve.update_handler_ms", summarise(updateMS))
	l.ms.set("serve.invalidated_per_batch", mean(invalidated))

	// What the session did to the server's own counters.
	rs, cs := srv.Results().Stats(), srv.Cache().Stats()
	l.ms.set("serve.resultcache.hit_ratio", ratio(rs.Hits, rs.Hits+rs.Misses))
	l.ms.set("serve.resultcache.evictions", float64(rs.Evictions))
	l.ms.set("serve.cache.hit_ratio", ratio(cs.Hits, cs.Hits+cs.Misses))
	l.ms.set("serve.cache.evictions", float64(cs.Evictions))
	l.ms.set("serve.admitted", float64(rs.Misses))

	l.probeServeParts()

	// The same handler behind a real loopback socket: what the transport
	// of cmd/gbbs-serve (net/http, TCP, the client's own encode and decode)
	// adds on top of the handler.
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := newClient(&target{base: ts.URL}, nil)
	defer c.close()
	body := mustJSON(hotSummary)
	var roundtripUS, healthUS []float64
	for i := 0; i < l.reps(200); i++ {
		start := time.Now()
		status, reply, err := c.do("POST", "/v1/run", body, -1, 0)
		roundtripUS = append(roundtripUS, float64(time.Since(start))/1e3)
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("loopback hit: status %d err %v", status, err)
		}
		replyLen = append(replyLen, float64(len(reply)))
		start = time.Now()
		if status, _, err = c.do("GET", "/healthz", nil, -1, 0); err != nil || status != http.StatusOK {
			return fmt.Errorf("loopback healthz: status %d err %v", status, err)
		}
		healthUS = append(healthUS, float64(time.Since(start))/1e3)
	}
	l.ms.set("http.roundtrip_overhead_us", median(roundtripUS)-median(hitUS))
	l.ms.setDist("http.healthz_us", summarise(healthUS))
	l.ms.setDist("http.response_bytes_p50", summarise(replyLen))
	return nil
}

// probeServeParts: the serving layer's building blocks, constructed the way
// serve.New constructs them and driven without contention (and, for the
// limiter's hand-off, with it).
func (l *ladder) probeServeParts() {
	ctx, p := l.ctx, l.e.threads
	const calls = 10000

	rc := serve.NewResultCache(16 << 20)
	compute := func(context.Context) (serve.RunResponse, error) { return serve.RunResponse{Algorithm: "bfs"}, nil }
	rc.GetOrRun(ctx, "k", compute) //nolint:errcheck // compute cannot fail
	l.ms.set("serve.resultcache.hit_ns", perCall(l.reps(20), calls, func() {
		for i := 0; i < calls; i++ {
			rc.GetOrRun(ctx, "k", compute) //nolint:errcheck // a hit
		}
	}))

	gc := serve.NewCache(ctx, 64<<20)
	build := func(context.Context) (gbbs.Graph, error) { return l.g.sym, nil }
	gc.GetOrBuild(ctx, "k", build) //nolint:errcheck // build cannot fail
	l.ms.set("serve.cache.hit_ns", perCall(l.reps(20), calls, func() {
		for i := 0; i < calls; i++ {
			gc.GetOrBuild(ctx, "k", build) //nolint:errcheck // a hit
		}
	}))

	lim := serve.NewLimiter(p, tenantWeights)
	l.ms.set("serve.limiter.acquire_ns", perCall(l.reps(20), calls, func() {
		for i := 0; i < calls; i++ {
			lim.Acquire(ctx, "gold", 1) //nolint:errcheck // never blocks: nothing else holds capacity
			lim.Release("gold", 1)
		}
	}))

	// Hand-off: the whole budget is held, eight waiters of two tenants
	// queue for all of it, and the clock runs from the release until the
	// last of them has been admitted in turn.
	const waiters = 8
	handoff := make([]float64, l.reps(20))
	for r := range handoff {
		lim.Acquire(ctx, "gold", p) //nolint:errcheck // uncontended
		var wg sync.WaitGroup
		var last time.Time
		var mu sync.Mutex
		for w := 0; w < waiters; w++ {
			wg.Add(1)
			//gbbs:lint-allow nakedgo a queued waiter of the limiter hand-off probe; admitted in turn and waited for below
			go func(tenant string) {
				defer wg.Done()
				lim.Acquire(ctx, tenant, p) //nolint:errcheck // background context
				mu.Lock()
				last = time.Now()
				mu.Unlock()
				lim.Release(tenant, p)
			}(tenantOf(w))
		}
		for lim.Queued("gold")+lim.Queued("bronze") < waiters {
			time.Sleep(50 * time.Microsecond)
		}
		start := time.Now()
		lim.Release("gold", p)
		wg.Wait()
		handoff[r] = float64(last.Sub(start)) / waiters
	}
	l.ms.set("serve.limiter.handoff_us", median(handoff)/1e3)

	pool := serve.NewEnginePool(p)
	defer pool.Close()
	pool.Put(pool.Get(1))
	l.ms.set("serve.enginepool.getput_ns", perCall(l.reps(20), calls, func() {
		for i := 0; i < calls; i++ {
			pool.Put(pool.Get(1))
		}
	}))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
