package serve

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"time"

	"repro/gbbs"
	"repro/gbbs/store"
)

// This file is the request pipeline every run takes, synchronous or async:
// decode and validate a RunRequest into a parsedRun (readRun,
// parseRunRequest), answer it from the result cache or execute it (run,
// execute). POST /v1/run and POST /v1/jobs differ only in where the caller
// waits for run: handleRun waits in its own handler, a job in its runner
// goroutine (jobs.go).

// parsedRun is a RunRequest after validation: resolved algorithm, parsed
// specs, canonical graph-cache key and result-cache fingerprint, resolved
// seed and tenant, effective thread count and timeout.
type parsedRun struct {
	req        RunRequest
	algo       gbbs.Algorithm
	source     gbbs.GraphSource
	transforms []gbbs.Transform
	snap       store.Snapshot // store-backed runs: the resolved snapshot
	useStore   bool           // request addressed a stored graph
	key        string         // graph-cache key, or the snapshot ID for store runs
	fp         string         // result-cache key: gbbs.Request.Key fingerprint
	seed       uint64         // resolved seed (request seed or gbbs.DefaultSeed)
	tenant     string         // resolved tenant (request tenant or DefaultTenant)
	threads    int
	timeout    time.Duration
	progress   func(JobState) // async jobs: lifecycle transition hook; nil for /v1/run
}

// readRun decodes and validates a RunRequest body: the first step of both
// POST /v1/run and POST /v1/jobs.
func (s *Server) readRun(w http.ResponseWriter, r *http.Request) (*parsedRun, error) {
	var req RunRequest
	if err := decodeBody(w, r, maxRequestBytes, &req); err != nil {
		return nil, err
	}
	p, rerr := s.parseRunRequest(req)
	if rerr != nil { // not `return p, rerr`: a nil *requestError is a non-nil error
		return nil, rerr
	}
	return p, nil
}

// validTenant reports whether the tenant name is well-formed: at most 64
// bytes of letters, digits, '.', '_' and '-'. The bound keeps
// client-supplied names from bloating the limiter's per-tenant state.
func validTenant(t string) bool {
	if len(t) > 64 {
		return false
	}
	for _, c := range t {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// parseRunRequest validates a decoded request — algorithm lookup, spec
// parsing, size guard, schema validation, fingerprinting, tenant/thread/
// timeout resolution — without touching the network. It is shared by the
// synchronous /v1/run handler, the async /v1/jobs submission path, and the
// request-decoder fuzz harness. Exactly one of the results is non-nil.
func (s *Server) parseRunRequest(req RunRequest) (*parsedRun, *requestError) {
	fail := func(status int, format string, args ...any) (*parsedRun, *requestError) {
		return nil, &requestError{status: status, msg: fmt.Sprintf(format, args...)}
	}
	a, ok := gbbs.Lookup(req.Algorithm)
	if !ok {
		if req.Algorithm == "" {
			return fail(http.StatusBadRequest, "missing \"algorithm\"")
		}
		return fail(http.StatusNotFound, "unknown algorithm %q (GET /v1/algorithms lists the registry)", req.Algorithm)
	}
	if (req.Source == "") == (req.Graph == "") {
		return fail(http.StatusBadRequest, "exactly one of \"source\" and \"graph\" is required")
	}
	p := &parsedRun{req: req, algo: a, tenant: req.Tenant, useStore: req.Graph != "",
		seed: gbbs.DefaultSeed, threads: s.threads, timeout: s.cfg.DefaultTimeout}
	if p.tenant == "" {
		p.tenant = DefaultTenant
	}
	if !validTenant(p.tenant) {
		return fail(http.StatusBadRequest, "bad tenant %q: want at most 64 bytes of [A-Za-z0-9._-]", req.Tenant)
	}

	fpReq := gbbs.Request{Source: req.Src, Opts: req.Opts}
	if p.useStore {
		if len(req.Transforms) > 0 {
			return fail(http.StatusBadRequest, "\"transforms\" apply at graph creation, not to runs against a stored graph")
		}
		if p.snap, ok = s.store.Get(req.Graph); !ok {
			return fail(http.StatusNotFound, "unknown graph %q (PUT /v1/graphs/{name} creates one, GET /v1/graphs lists them)", req.Graph)
		}
		// The snapshot ID — name plus version — is the input's canonical
		// identity: a version bump changes every dependent fingerprint, so
		// a result computed on a superseded version can never be returned.
		p.key = p.snap.ID()
		fpReq.GraphID = p.key
	} else {
		var err error
		if p.source, p.transforms, p.key, err = s.parseInput(req.Source, req.Transforms); err != nil {
			return fail(http.StatusBadRequest, "%v", err)
		}
		fpReq.Input = &gbbs.InputSpec{Source: p.source, Transforms: p.transforms}
	}

	// Resolve the seed once — the warm-pool engines run with
	// gbbs.DefaultSeed, so this is exactly the seed Engine.Run will use —
	// and fingerprint the request. Key validates Opts against the
	// algorithm's parameter schema, so an unknown or out-of-range parameter
	// is a 400 here, before any admission or build work.
	if req.Seed != nil {
		p.seed = *req.Seed
	}
	fpReq.Seed = &p.seed
	var err error
	if p.fp, err = fpReq.Key(a); err != nil {
		return fail(http.StatusBadRequest, "%v", err)
	}
	if req.Threads > 0 {
		p.threads = min(req.Threads, s.cfg.MaxThreads)
	}
	if req.TimeoutMS > 0 {
		p.timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	return p, nil
}

// parseInput parses a source spec and its transform specs (each element
// may itself be semicolon-separated), applies the size guard, and returns
// the input's canonical graph-cache key. Runs and graph creation both call
// it, so they accept exactly the same inputs.
func (s *Server) parseInput(spec string, transformSpecs []string) (gbbs.GraphSource, []gbbs.Transform, string, error) {
	source, err := gbbs.ParseSource(spec)
	if err != nil {
		return nil, nil, "", fmt.Errorf("bad source spec: %v", err)
	}
	var transforms []gbbs.Transform
	for _, ts := range transformSpecs {
		tfs, err := gbbs.ParseTransforms(ts)
		if err != nil {
			return nil, nil, "", fmt.Errorf("bad transform spec: %v", err)
		}
		transforms = append(transforms, tfs...)
	}
	if err := s.checkScale(source); err != nil {
		return nil, nil, "", err
	}
	return source, transforms, cacheKey(source, transforms), nil
}

// cacheKey renders the canonical cache key of a parsed input: the source's
// canonical String joined with each transform's, so every spelling of the
// same spec ("rmat:16", "rmat:scale=16,factor=16") shares one cache entry.
func cacheKey(source gbbs.GraphSource, transforms []gbbs.Transform) string {
	parts := make([]string, 0, len(transforms)+1)
	parts = append(parts, source.String())
	for _, t := range transforms {
		parts = append(parts, t.String())
	}
	return strings.Join(parts, "|")
}

// checkScale enforces Config.MaxSourceScale S via gbbs.SizeHint: the
// declared vertex count may not exceed 2^S and the declared directed edge
// count may not exceed 32·2^S (twice the default R-MAT edge factor), so
// neither a huge n nor a huge edge multiplier (rmat factor, er m, ba/ws k,
// complete's n²) can slip past the guard. Sources without a size hint
// (file readers, custom SourceFunc values) are exempt — operators control
// what is on disk.
func (s *Server) checkScale(source gbbs.GraphSource) error {
	if s.cfg.MaxSourceScale <= 0 {
		return nil
	}
	n, m, ok := gbbs.SizeHint(source)
	if !ok {
		return nil
	}
	scale := min(s.cfg.MaxSourceScale, 57)
	maxN := int64(1) << uint(scale)
	maxM := 32 * maxN
	if n > maxN || m > maxM {
		return fmt.Errorf("serve: source %s declares n=%d m=%d, exceeding the server's size guard (max 2^%d vertices, %d edges)",
			source, n, m, s.cfg.MaxSourceScale, maxM)
	}
	return nil
}

// handleRun implements POST /v1/run: validate and fingerprint, run the
// request under its deadline while this handler waits, and write the
// outcome.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	p, err := s.readRun(w, r)
	if err != nil {
		writeErr(w, err)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), p.timeout)
	defer cancel()
	resp, err := s.run(ctx, p)
	writeResult(w, p.algo.Name, resp, p.req.IncludeValue, err)
}

// run is the one run step of every request, synchronous or async: answer
// from the result cache when an identical request already ran (or is
// running — concurrent duplicates share one execution), otherwise execute
// it and cache the response under the fingerprint. The response reports
// which happened in result_cache.
func (s *Server) run(ctx context.Context, p *parsedRun) (RunResponse, error) {
	resp, hit, err := s.results.GetOrRun(ctx, p.fp, func(ctx context.Context) (RunResponse, error) {
		return s.execute(ctx, p)
	})
	if err != nil {
		return RunResponse{}, err
	}
	resp.ResultCache = "miss"
	if hit {
		// Served from memory: no admission, build or execution happened, so
		// the graph cache was definitionally not missed either. The embedded
		// Result (including its timings) is the original run's.
		resp.ResultCache = "hit"
		resp.Cache = "hit"
	}
	return resp, nil
}

// execute runs one validated request end to end — thread admission, graph
// fetch/build, registry dispatch — and assembles the RunResponse the result
// cache retains. The response keeps Result.Value regardless of
// include_value: the cache stores the full result once, and writeResult
// strips the value per request.
func (s *Server) execute(ctx context.Context, p *parsedRun) (RunResponse, error) {
	// Admission: the request's whole execution — including the build it may
	// start — runs on an engine with p.threads workers, so that is what it
	// must be admitted for. The grant is held until the run finishes; a
	// build outliving a departed waiter (deadline hit mid-build) can briefly
	// run past the cap, bounded by one build per key.
	if err := s.limiter.Acquire(ctx, p.tenant, p.threads); err != nil {
		return RunResponse{}, err
	}
	defer s.limiter.Release(p.tenant, p.threads)
	if p.progress != nil {
		p.progress(JobBuilding)
	}

	// The engine comes from the warm pool: its scheduler's workers are the
	// resident goroutines the admission grant accounts for, parked from a
	// previous request rather than spawned for this one. The per-request
	// seed travels in gbbs.Request.Seed below, so sharing engines across
	// requests never leaks randomness between tenants.
	eng := s.engines.Get(p.threads)
	defer s.engines.Put(eng)
	var (
		g          gbbs.Graph
		cacheState string
		runReq     gbbs.Request
	)
	if p.useStore {
		// Store-backed runs bypass the graph cache entirely: the snapshot
		// already resides in the store, pinned by the version this request
		// resolved at parse time.
		g = p.snap.Graph
		cacheState = "store"
		runReq = gbbs.Request{Graph: g, GraphID: p.snap.ID(), Source: p.req.Src, Seed: &p.seed, Opts: p.req.Opts}
		if p.algo.Name == "incrcc" {
			// Offer the stored incremental state (labels of an earlier
			// version plus the batches since); the runner falls back to a
			// full union-find when it is nil or unusable.
			runReq.Incr = s.store.CCState(p.snap.Name, p.snap.Version)
		}
	} else {
		var hit bool
		var err error
		g, hit, err = s.cache.GetOrBuild(ctx, p.key, func(buildCtx context.Context) (gbbs.Graph, error) {
			return eng.Build(buildCtx, p.source, p.transforms...)
		})
		if err != nil {
			return RunResponse{}, err
		}
		cacheState = "miss"
		if hit {
			cacheState = "hit"
		}
		runReq = gbbs.Request{Graph: g, Source: p.req.Src, Seed: &p.seed, Opts: p.req.Opts}
	}

	if p.progress != nil {
		p.progress(JobRunning)
	}
	res, err := eng.Run(ctx, p.algo.Name, runReq)
	if err != nil {
		return RunResponse{}, err
	}
	res.Graph = nil
	if p.useStore && p.algo.Name == "incrcc" {
		if labels, ok := res.Value.([]uint32); ok {
			// Labellings are canonical per version, so recording this one
			// makes the next run after further insertions incremental.
			s.store.SaveCC(p.snap.Name, p.snap.Version, labels)
		}
	}
	return RunResponse{
		Algorithm: p.algo.Name,
		Spec:      p.key,
		Cache:     cacheState,
		Key:       p.fp,
		Seed:      res.Seed,
		Threads:   p.threads,
		Graph: GraphInfo{
			N:           g.N(),
			M:           g.M(),
			Weighted:    g.Weighted(),
			Symmetric:   g.Symmetric(),
			ApproxBytes: approxGraphBytes(g),
		},
		Result: res,
	}, nil
}
