// Package serve is the HTTP serving layer of the gbbs engine: a JSON API
// that executes declarative graph requests — source spec, transforms,
// algorithm name, thread budget, deadline — on per-request engines, against
// graphs and results cached and shared across tenants.
//
// A request is one serializable object (see RunRequest). Its input is the
// textual spec language of gbbs.ParseSource / gbbs.ParseTransforms, its
// algorithm any name in the gbbs registry, and its opts are validated
// against the algorithm's typed parameter schema (gbbs.Algorithm.Params) —
// unknown or out-of-range parameters are rejected with 400 before any work
// is admitted. Execution is bounded by a thread budget (admitted by the
// server's Limiter, so concurrent tenants cannot oversubscribe the
// machine) and a deadline (a context the engine checks between rounds).
//
// Two caches back the endpoint. Built graphs are kept resident in a Cache
// keyed by canonical spec, with singleflight deduplication of concurrent
// identical builds and LRU eviction by approximate byte size. Completed
// runs are kept in a ResultCache keyed by the request's canonical
// fingerprint (gbbs.Request.Key: algorithm, canonical input spec, source
// vertex, resolved seed, normalized params) — every algorithm is
// deterministic in that tuple, so a repeated identical request is answered
// from memory without executing anything. Both are instantiations of one
// unexported mechanism (flight: lookup-or-join, run, publish and account
// under one lock, evict completed entries LRU past a budget, invalidate);
// they differ only in how a value is costed and whether its production is
// detached from the request that started it. The async job table is a
// separate structure on purpose — an ID-addressed registry with TTL
// retention and queue positions, not a cache.
//
// A third layer is the versioned graph store (gbbs/store): graphs built
// once via PUT /v1/graphs/{name} and addressed by name in RunRequest.Graph,
// taking batched edge insertions (POST /v1/graphs/{name}/edges) that bump
// the graph's version in place of a rebuild. The version is part of every
// dependent result-cache fingerprint, so an update can never cause a stale
// result to be served; superseded entries are additionally invalidated by
// exact key.
//
// Long runs go through the async job API instead of holding a connection:
// POST /v1/jobs accepts the same RunRequest and returns a job ID
// immediately; the run executes detached, observable through GET
// /v1/jobs/{id} (state, queue position, elapsed times), its result
// fetchable via GET /v1/jobs/{id}/result once done, and cancellable with
// DELETE /v1/jobs/{id} through the engine's context-cancellation path.
// A job and a /v1/run request take one request path — decoder, validation,
// run step, error mapping — and differ only in where the caller waits.
// Duplicate submissions (same fingerprint and include_value) join one job
// until it fails; every execution is shared through the result cache.
// Admission itself is tenant-fair: requests name a tenant
// (RunRequest.Tenant) and the Limiter drains per-tenant queues by weighted
// fair scheduling (Config.TenantWeights), so one tenant's backlog cannot
// starve another's first request.
//
// Endpoints:
//
//	POST   /v1/run                  run a RunRequest, returning a RunResponse
//	POST   /v1/jobs                 submit a RunRequest as an async job
//	GET    /v1/jobs                 list resident jobs (optionally ?tenant=)
//	GET    /v1/jobs/{id}            poll one job's status
//	GET    /v1/jobs/{id}/result     fetch a finished job's RunResponse
//	DELETE /v1/jobs/{id}            cancel a queued or running job
//	GET    /v1/algorithms           list registered algorithms with parameter schemas
//	GET    /v1/cache                graph- and result-cache entries and counters
//	DELETE /v1/cache?key=K          invalidate one cache entry by exact key
//	GET    /v1/graphs               list stored graphs with versions
//	PUT    /v1/graphs/{name}        build a source spec and store it
//	GET    /v1/graphs/{name}        describe one stored graph
//	DELETE /v1/graphs/{name}        remove a stored graph
//	POST   /v1/graphs/{name}/edges  insert an edge batch, bumping the version
//	GET    /healthz                 liveness, uptime, admission and cache state
//
// The package is net/http based: Server implements http.Handler, so it can
// be mounted under any mux or served directly (see cmd/gbbs-serve).
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"time"

	"repro/gbbs"
	"repro/gbbs/store"
	"repro/internal/vfs"
)

// maxRequestBytes caps control-plane bodies (/v1/run, graph creation); such
// a request is a few hundred bytes even with a generous opts map, so 1 MiB
// is far beyond any legitimate use. Edge-batch bodies are data, not
// control, and get their own per-route cap (Config.MaxBodyBytes).
const maxRequestBytes = 1 << 20

// Config tunes a Server; the zero value selects sensible defaults.
type Config struct {
	// MaxThreads caps the total worker threads of concurrently running
	// requests (the admission limiter's capacity). 0 selects
	// runtime.NumCPU(). A request asking for more threads than this is
	// clamped to it.
	MaxThreads int
	// CacheBytes is the graph cache's approximate byte budget. 0 selects
	// 1 GiB; negative disables retention (in-flight builds still dedup).
	CacheBytes int64
	// ResultCacheBytes is the result cache's approximate byte budget. 0
	// selects 256 MiB; negative disables retention (concurrent identical
	// requests still share one execution).
	ResultCacheBytes int64
	// DefaultTimeout bounds requests that do not set timeout_ms. 0 selects
	// 60s.
	DefaultTimeout time.Duration
	// MaxSourceScale S rejects generator specs implying more than 2^S
	// vertices or 32·2^S directed edges (counting edge multipliers like
	// the rmat factor, er's m and complete's n²). 0 disables the guard.
	// It exists so a public endpoint cannot be asked for a terabyte build.
	MaxSourceScale int
	// MaxBodyBytes caps an edge-batch body (POST /v1/graphs/{name}/edges),
	// the one route whose payload is data rather than control: a million
	// inserted edges is ~16 MB of JSON. 0 selects 64 MiB. Control-plane
	// routes keep their own 1 MiB cap regardless. Oversize bodies are
	// rejected with 413.
	MaxBodyBytes int64
	// DataDir, when nonempty, makes the graph store persistent: graphs
	// survive daemon restarts as checksummed snapshots plus a write-ahead
	// log (gbbs-serve -data-dir). Call RecoverGraphs at boot to load them.
	DataDir string
	// StoreFS is the filesystem the persistence layer runs on; nil selects
	// the real one. Tests inject fault-modeling filesystems here. Ignored
	// when DataDir is empty.
	StoreFS vfs.FS
	// TenantWeights sets per-tenant fair-share weights for admission
	// (gbbs-serve -tenant-weights). Tenants absent from the map — including
	// DefaultTenant — weigh 1. Weights shape the ratio of admissions between
	// backlogged tenants: weights 3:1 admit three of the first tenant's
	// requests per one of the second's.
	TenantWeights map[string]int
	// JobTTL is how long finished async jobs stay fetchable after
	// completion before the job table evicts them (a result fetch after
	// eviction is 410). 0 selects 15 minutes.
	JobTTL time.Duration
	// MaxJobs caps resident async jobs. Submissions beyond it are rejected
	// with 503 while that many jobs are active; finished jobs beyond it are
	// evicted oldest-first ahead of their TTL. 0 selects 1024.
	MaxJobs int
}

// Server runs declarative graph requests over HTTP. Create it with New,
// mount it as an http.Handler, and Close it at shutdown to abort any
// builds still in flight.
type Server struct {
	cfg     Config
	cache   *Cache
	results *ResultCache
	limiter *Limiter
	engines *EnginePool
	store   *store.Store
	jobs    *jobTable
	mux     *http.ServeMux
	started time.Time
	threads int // default engine width: the CPU count, capped at MaxThreads

	buildCtx  context.Context
	stopBuild context.CancelFunc
}

// New returns a Server with the given configuration.
func New(cfg Config) *Server {
	if cfg.MaxThreads <= 0 {
		cfg.MaxThreads = runtime.NumCPU()
	}
	if cfg.CacheBytes == 0 {
		cfg.CacheBytes = 1 << 30
	}
	if cfg.ResultCacheBytes == 0 {
		cfg.ResultCacheBytes = 256 << 20
	}
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = 60 * time.Second
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 64 << 20
	}
	if cfg.JobTTL <= 0 {
		cfg.JobTTL = 15 * time.Minute
	}
	if cfg.MaxJobs <= 0 {
		cfg.MaxJobs = 1024
	}
	buildCtx, stop := context.WithCancel(context.Background())
	s := &Server{
		cfg:       cfg,
		cache:     NewCache(buildCtx, cfg.CacheBytes),
		results:   NewResultCache(cfg.ResultCacheBytes),
		limiter:   NewLimiter(cfg.MaxThreads, cfg.TenantWeights),
		engines:   NewEnginePool(cfg.MaxThreads),
		store:     store.New(store.Config{DataDir: cfg.DataDir, FS: cfg.StoreFS}),
		jobs:      newJobTable(cfg.JobTTL, cfg.MaxJobs),
		mux:       http.NewServeMux(),
		started:   time.Now(),
		threads:   min(runtime.NumCPU(), cfg.MaxThreads),
		buildCtx:  buildCtx,
		stopBuild: stop,
	}
	s.mux.HandleFunc("POST /v1/run", s.handleRun)
	s.mux.HandleFunc("POST /v1/jobs", s.handleJobSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleJobList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleJobResult)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	s.mux.HandleFunc("GET /v1/algorithms", s.handleAlgorithms)
	s.mux.HandleFunc("GET /v1/cache", s.handleCache)
	s.mux.HandleFunc("DELETE /v1/cache", s.handleCacheInvalidate)
	s.mux.HandleFunc("GET /v1/graphs", s.handleGraphList)
	s.mux.HandleFunc("PUT /v1/graphs/{name}", s.handleGraphCreate)
	s.mux.HandleFunc("GET /v1/graphs/{name}", s.handleGraphGet)
	s.mux.HandleFunc("DELETE /v1/graphs/{name}", s.handleGraphDelete)
	s.mux.HandleFunc("POST /v1/graphs/{name}/edges", s.handleGraphEdges)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	return s
}

// ServeHTTP dispatches to the server's endpoints.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Cache exposes the server's graph cache (for stats or invalidation).
func (s *Server) Cache() *Cache { return s.cache }

// Results exposes the server's result cache (for stats or invalidation).
func (s *Server) Results() *ResultCache { return s.results }

// Limiter exposes the server's admission limiter.
func (s *Server) Limiter() *Limiter { return s.limiter }

// Engines exposes the server's warm engine pool (for stats).
func (s *Server) Engines() *EnginePool { return s.engines }

// Store exposes the server's versioned graph store.
func (s *Server) Store() *store.Store { return s.store }

// Close aborts in-flight cache builds and releases the warm engine pool's
// workers. In-flight HTTP requests fail with their build's cancellation
// error; call it after the http.Server has drained.
func (s *Server) Close() {
	s.stopBuild()
	s.engines.Close()
}

// RunRequest is the wire form of one declarative run: everything a tenant
// request needs, as one JSON object.
//
//	{"source": "rmat:16", "transforms": ["symmetrize"], "algorithm": "bfs",
//	 "threads": 4, "timeout_ms": 5000}
type RunRequest struct {
	// Source is a gbbs.ParseSource spec ("rmat:scale=18", "file:g.adj").
	// Exactly one of Source and Graph must be set.
	Source string `json:"source,omitempty"`
	// Graph names a graph in the server's versioned store (PUT
	// /v1/graphs/{name}); the run executes on its current version, whose ID
	// is folded into the result-cache key so results from superseded
	// versions can never be served. Exactly one of Source and Graph must be
	// set; Transforms apply only to Source.
	Graph string `json:"graph,omitempty"`
	// Transforms are gbbs.ParseTransforms specs, one or more per element
	// (each element may itself be semicolon-separated).
	Transforms []string `json:"transforms,omitempty"`
	// Algorithm is the registry name to dispatch ("bfs", "cc", ...).
	Algorithm string `json:"algorithm"`
	// Src is the source vertex for SSSP/BC-style algorithms.
	Src uint32 `json:"src,omitempty"`
	// Threads is the engine's worker count; 0 selects the server's
	// per-request default, and values above the server budget are clamped.
	Threads int `json:"threads,omitempty"`
	// TimeoutMS bounds the whole request (admission wait + build wait +
	// run) in milliseconds; 0 selects the server default.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Seed overrides the run's seed when present; absent selects
	// gbbs.DefaultSeed. An explicit "seed": 0 is a valid, distinct seed.
	Seed *uint64 `json:"seed,omitempty"`
	// Opts carries algorithm-specific parameters (gbbs.Request.Opts),
	// validated against the algorithm's parameter schema — unknown keys and
	// out-of-range values are rejected with 400.
	Opts map[string]any `json:"opts,omitempty"`
	// Tenant is the fair-share identity the request's thread admission is
	// charged to (letters, digits, '.', '_', '-'; at most 64 bytes); empty
	// selects DefaultTenant. Tenants with backlogged work are admitted in
	// proportion to their configured weights (Config.TenantWeights). The
	// tenant is deliberately not part of the result-cache fingerprint:
	// identical requests from different tenants share one execution and one
	// cached result.
	Tenant string `json:"tenant,omitempty"`
	// IncludeValue returns the algorithm's full output value (which is
	// O(n) numbers for most algorithms) instead of only the summary.
	IncludeValue bool `json:"include_value,omitempty"`
}

// GraphInfo describes the graph a run executed on.
type GraphInfo struct {
	// N is the vertex count.
	N int `json:"n"`
	// M is the stored directed-edge count.
	M int `json:"m"`
	// Weighted reports whether edges carry weights.
	Weighted bool `json:"weighted"`
	// Symmetric reports whether the graph is stored symmetrically.
	Symmetric bool `json:"symmetric"`
	// ApproxBytes is the cache's size estimate for the graph.
	ApproxBytes int64 `json:"approx_bytes"`
}

// RunResponse is the wire form of a successful run.
type RunResponse struct {
	// Algorithm echoes the dispatched registry name.
	Algorithm string `json:"algorithm"`
	// Spec is the canonical cache key of the input ("rmat(scale=16,...)|sym"),
	// under which repeated requests hit the graph cache.
	Spec string `json:"spec"`
	// Cache is "hit" when the graph came from the cache (including joining
	// an in-flight build), "miss" when this request triggered the build. A
	// result-cache hit reports "hit" here too: no build ran at all.
	Cache string `json:"cache"`
	// ResultCache is "hit" when the whole response was served from the
	// result cache (including joining an identical in-flight run) — no
	// admission, build or execution happened for this request — and "miss"
	// when this request executed the algorithm.
	ResultCache string `json:"result_cache"`
	// Key is the request's canonical fingerprint (gbbs.Request.Key), the
	// identity under which identical requests share one result-cache entry.
	Key string `json:"key"`
	// Seed is the effective seed the run used (gbbs.Result.Seed).
	Seed uint64 `json:"seed"`
	// Threads is the admitted worker count the run used. A result-cache hit
	// echoes the thread count of the run that produced the cached entry
	// (results are thread-count independent).
	Threads int `json:"threads"`
	// Graph describes the input graph.
	Graph GraphInfo `json:"graph"`
	// Result is the algorithm's result in gbbs.Result's JSON form (value
	// omitted unless the request set include_value).
	Result gbbs.Result `json:"result"`
}

// ErrorResponse is the wire form of any non-2xx response.
type ErrorResponse struct {
	// Error is a human-readable description of what was rejected.
	Error string `json:"error"`
}

// AlgorithmInfo is one entry of GET /v1/algorithms.
type AlgorithmInfo struct {
	// Name is the registry key to put in RunRequest.Algorithm.
	Name string `json:"name"`
	// Description is the algorithm's one-line registry description.
	Description string `json:"description"`
	// NeedsSource marks algorithms that read RunRequest.Src.
	NeedsSource bool `json:"needs_source,omitempty"`
	// NeedsWeights marks algorithms requiring a weighted input.
	NeedsWeights bool `json:"needs_weights,omitempty"`
	// NeedsSymmetric marks algorithms that refuse a directed input.
	NeedsSymmetric bool `json:"needs_symmetric,omitempty"`
	// Directed marks algorithms that want the directed input variant.
	Directed bool `json:"directed,omitempty"`
	// PaperRow is the algorithm's row label in the paper's tables, when it
	// is part of the paper's 15-problem suite.
	PaperRow string `json:"paper_row,omitempty"`
	// Params is the algorithm's full typed parameter schema: every accepted
	// opts key with its kind, default, bounds and doc line.
	Params []gbbs.Param `json:"params,omitempty"`
}

// HealthResponse is the wire form of GET /healthz.
type HealthResponse struct {
	// Status is "ok" whenever the server answers.
	Status string `json:"status"`
	// UptimeMS is milliseconds since the server was created.
	UptimeMS int64 `json:"uptime_ms"`
	// ThreadsInUse is the admission limiter's currently admitted units.
	ThreadsInUse int `json:"threads_in_use"`
	// ThreadCapacity is the admission limiter's total budget.
	ThreadCapacity int `json:"thread_capacity"`
	// WarmEngines is the number of idle engines held ready for reuse.
	WarmEngines int `json:"warm_engines"`
	// WarmThreads is the total worker-thread count across warm engines.
	WarmThreads int `json:"warm_threads"`
	// ResultCacheHits counts runs (/v1/run requests and jobs) answered from
	// the result cache (including joins of in-flight identical runs).
	ResultCacheHits int64 `json:"result_cache_hits"`
	// ResultCacheMisses counts runs that executed.
	ResultCacheMisses int64 `json:"result_cache_misses"`
	// ResultCacheEntries is the number of completed cached results.
	ResultCacheEntries int `json:"result_cache_entries"`
	// Goroutines is runtime.NumGoroutine, a cheap load signal.
	Goroutines int `json:"goroutines"`
	// Tenants is the per-tenant admission state: weight, admitted threads,
	// queued waiters, cumulative admissions and oldest wait. Tenants appear
	// while they hold threads or queued work.
	Tenants []TenantStats `json:"tenants,omitempty"`
	// Jobs summarizes the async job table: active and retained jobs plus
	// lifetime submission/join/eviction counters.
	Jobs JobsStats `json:"jobs"`
	// Persistent reports whether the graph store has a data directory and
	// survives restarts.
	Persistent bool `json:"persistent"`
	// Durability is the per-graph durability state (durable version, WAL
	// size, degraded flag, recovery stats); only present on persistent
	// stores.
	Durability []store.GraphDurability `json:"durability,omitempty"`
}

// writeJSON writes v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // nothing to do about a failed write
}

// writeError writes an ErrorResponse.
func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// requestError is a rejected request on its way to an ErrorResponse: the
// HTTP status to answer with and the human-readable reason. It is an error
// so it travels the same path as every other failure; errorStatus keeps its
// status.
type requestError struct {
	status int
	msg    string
}

func (e *requestError) Error() string { return e.msg }

// decodeBody strictly decodes a JSON body of at most limit bytes into v:
// unknown fields are rejected, and an oversize body surfaces as an
// *http.MaxBytesError, which errorStatus maps to 413.
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("decoding request body: %w", err)
	}
	return nil
}

// errorStatus is the one map from a failed request to its HTTP status,
// shared by every route: a requestError keeps its own status; a degraded
// (read-only) stored graph is 503, an unknown one 404, a duplicate one 409;
// deadline expiry is 504; cancellation (client gone, job canceled, server
// shutdown) 503; an oversize body 413; anything else — registry validation,
// build failures, malformed JSON — 400.
func errorStatus(err error) int {
	var rerr *requestError
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &rerr):
		return rerr.status
	case errors.Is(err, store.ErrDegraded):
		return http.StatusServiceUnavailable
	case errors.Is(err, store.ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, store.ErrExists):
		return http.StatusConflict
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable
	case errors.As(err, &tooBig):
		return http.StatusRequestEntityTooLarge
	default:
		return http.StatusBadRequest
	}
}

// writeErr writes err as an ErrorResponse with errorStatus's status. A
// degraded graph keeps serving reads from its last durable state, so the
// client is told to retry its mutation after an operator intervenes (or a
// restart recovers the store).
func writeErr(w http.ResponseWriter, err error) {
	if errors.Is(err, store.ErrDegraded) {
		w.Header().Set("Retry-After", "30")
	}
	writeError(w, errorStatus(err), "%v", err)
}

// writeResult writes the outcome of a run — the response, with
// Result.Value stripped unless includeValue, or the error prefixed with the
// algorithm — for both /v1/run and a job's result, so the same outcome is
// the same status and body on either route.
func writeResult(w http.ResponseWriter, algo string, resp RunResponse, includeValue bool, err error) {
	if err != nil {
		writeErr(w, fmt.Errorf("%s: %w", algo, err))
		return
	}
	if !includeValue {
		resp.Result.Value = nil
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleHealthz implements GET /healthz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	eng := s.engines.Stats()
	hits, misses, entries := s.results.Counters()
	writeJSON(w, http.StatusOK, HealthResponse{
		Status:             "ok",
		UptimeMS:           time.Since(s.started).Milliseconds(),
		ThreadsInUse:       s.limiter.InUse(),
		ThreadCapacity:     s.limiter.Capacity(),
		WarmEngines:        eng.WarmEngines,
		WarmThreads:        eng.WarmThreads,
		ResultCacheHits:    hits,
		ResultCacheMisses:  misses,
		ResultCacheEntries: entries,
		Goroutines:         runtime.NumGoroutine(),
		Tenants:            s.limiter.TenantStats(),
		Jobs:               s.jobs.stats(),
		Persistent:         s.store.Persistent(),
		Durability:         s.store.Durability(),
	})
}

// handleAlgorithms implements GET /v1/algorithms.
func (s *Server) handleAlgorithms(w http.ResponseWriter, r *http.Request) {
	algos := gbbs.Algorithms()
	out := make([]AlgorithmInfo, 0, len(algos))
	for _, a := range algos {
		out = append(out, AlgorithmInfo{
			Name:           a.Name,
			Description:    a.Description,
			NeedsSource:    a.NeedsSource,
			NeedsWeights:   a.NeedsWeights,
			NeedsSymmetric: a.NeedsSymmetric,
			Directed:       a.Directed,
			PaperRow:       a.PaperRow,
			Params:         a.Params,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// CachesResponse is the wire form of GET /v1/cache: both server caches.
type CachesResponse struct {
	// Graph is the spec-keyed graph cache's entries and counters.
	Graph CacheStats `json:"graph"`
	// Results is the fingerprint-keyed result cache's entries and counters.
	Results ResultCacheStats `json:"results"`
}

// handleCache implements GET /v1/cache.
func (s *Server) handleCache(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, CachesResponse{
		Graph:   s.cache.Stats(),
		Results: s.results.Stats(),
	})
}
