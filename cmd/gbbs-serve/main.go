// gbbs-serve is the benchmark's serving daemon: an HTTP JSON API that runs
// declarative graph requests (source spec + transforms + algorithm name +
// thread budget + deadline, one serializable object) on per-request engines,
// against graphs cached and shared across requests.
//
// Usage:
//
//	gbbs-serve -addr :8080 -threads 16 -cache-mb 1024 -timeout 60s
//
// Endpoints (see package repro/gbbs/serve):
//
//	POST   /v1/run                  execute a run request synchronously
//	POST   /v1/jobs                 submit a run request as an async job
//	GET    /v1/jobs                 list jobs (optionally ?tenant=name)
//	GET    /v1/jobs/{id}            poll one job's status and queue position
//	GET    /v1/jobs/{id}/result     fetch a completed job's result
//	DELETE /v1/jobs/{id}            cancel a queued or running job
//	GET    /v1/algorithms           list the registry with parameter schemas
//	GET    /v1/cache                graph- and result-cache contents and counters
//	DELETE /v1/cache?key=K          invalidate one cache entry by exact key
//	GET    /v1/graphs               list stored graphs with versions
//	PUT    /v1/graphs/{name}        build a source spec into the versioned store
//	GET    /v1/graphs/{name}        describe one stored graph
//	DELETE /v1/graphs/{name}        remove a stored graph
//	POST   /v1/graphs/{name}/edges  insert an edge batch, bumping the version
//	GET    /healthz                 liveness, admission and cache state
//
// Repeated identical requests (same algorithm, canonical input spec,
// source vertex, seed and normalized parameters) are answered from the
// deterministic result cache without executing anything; -result-cache-mb
// bounds its footprint.
//
// Thread admission is weighted-fair across tenants: requests name a tenant
// in the "tenant" field, and -tenant-weights grants named tenants a larger
// share of the worker-thread budget under contention, e.g.
//
//	gbbs-serve -tenant-weights 'gold=10,silver=3'
//
// Unlisted tenants (and requests without a tenant) weigh 1. Async jobs are
// retained for -job-ttl after they finish; -max-jobs bounds the job table.
//
// Example:
//
//	curl -s localhost:8080/v1/run -d '{"source":"rmat:16",
//	  "transforms":["symmetrize"],"algorithm":"bfs","threads":4,
//	  "timeout_ms":5000}'
//
// With -data-dir the graph store is durable: every stored graph keeps a
// checksummed snapshot plus a write-ahead log under that directory, edge
// batches are fsync'd before they are acknowledged, and a restart (even
// after SIGKILL) recovers every graph to its last acknowledged version. A
// graph whose log can no longer be written degrades to read-only: mutations
// get 503 with Retry-After while reads keep serving, and /healthz reports
// the per-graph durability state.
//
// The daemon shuts down gracefully on SIGINT/SIGTERM: listeners close, in
// flight requests and admitted async jobs drain (bounded by
// -drain-timeout), then pending cache builds are aborted.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/gbbs/serve"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	threads := flag.Int("threads", runtime.NumCPU(), "total worker-thread budget across concurrent requests")
	cacheMB := flag.Int64("cache-mb", 1024, "graph cache budget in MiB (0 disables retention)")
	resultCacheMB := flag.Int64("result-cache-mb", 256, "result cache budget in MiB (0 disables retention)")
	timeout := flag.Duration("timeout", 60*time.Second, "default per-request deadline when timeout_ms is absent")
	maxScale := flag.Int("max-scale", 24, "reject generator specs above this scale (0 = no guard)")
	maxBodyMB := flag.Int64("max-body-mb", 64, "edge-batch body cap in MiB (oversize bodies get 413)")
	dataDir := flag.String("data-dir", "", "durable graph-store directory: checksummed snapshots plus a write-ahead log per graph (empty = in-memory only)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "shutdown grace period: in-flight requests and queued async jobs drain up to this long")
	tenantWeights := flag.String("tenant-weights", "", "per-tenant fair-share weights as name=weight pairs, comma-separated (unlisted tenants weigh 1)")
	jobTTL := flag.Duration("job-ttl", 15*time.Minute, "retention of finished async jobs before their results are evicted")
	maxJobs := flag.Int("max-jobs", 1024, "async job table bound (submissions beyond it get 503)")
	flag.Parse()

	weights, err := parseTenantWeights(*tenantWeights)
	if err != nil {
		log.Fatalf("-tenant-weights: %v", err)
	}

	cacheBytes := *cacheMB << 20
	if *cacheMB == 0 {
		cacheBytes = -1
	}
	resultCacheBytes := *resultCacheMB << 20
	if *resultCacheMB == 0 {
		resultCacheBytes = -1
	}
	srv := serve.New(serve.Config{
		MaxThreads:       *threads,
		CacheBytes:       cacheBytes,
		ResultCacheBytes: resultCacheBytes,
		DefaultTimeout:   *timeout,
		MaxSourceScale:   *maxScale,
		MaxBodyBytes:     *maxBodyMB << 20,
		TenantWeights:    weights,
		JobTTL:           *jobTTL,
		MaxJobs:          *maxJobs,
		DataDir:          *dataDir,
	})
	if *dataDir != "" {
		report, err := srv.RecoverGraphs(context.Background())
		if err != nil {
			log.Fatalf("recovering %s: %v", *dataDir, err)
		}
		for _, g := range report.Graphs {
			if g.Error != "" {
				log.Printf("recovery: graph %q NOT recovered: %s", g.Name, g.Error)
				continue
			}
			log.Printf("recovery: graph %q at version %d (snapshot %d + %d replayed batches, %d torn bytes discarded)",
				g.Name, g.Version, g.SnapshotVersion, g.ReplayedBatches, g.DiscardedTailBytes)
		}
	}
	httpServer := &http.Server{
		Addr:              *addr,
		Handler:           logRequests(srv),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		// One deadline covers the whole wind-down: stop accepting and drain
		// in-flight HTTP, then let admitted async jobs finish, then abort
		// whatever is left. Acked mutations are already on disk, so a job
		// killed at the deadline loses only its own computation.
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := httpServer.Shutdown(shutdownCtx); err != nil {
			log.Printf("shutdown: %v", err)
		}
		if err := srv.Drain(shutdownCtx); err != nil {
			log.Printf("drain: %v (aborting remaining jobs)", err)
		}
		srv.Close()
	}()

	log.Printf("gbbs-serve listening on %s (threads=%d cache=%dMiB timeout=%v)",
		*addr, *threads, *cacheMB, *timeout)
	if err := httpServer.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	log.Printf("gbbs-serve stopped")
}

// parseTenantWeights parses "name=weight,name=weight" into the serve
// config's weight map. Weights must be positive integers; an empty spec
// yields a nil map (every tenant weighs 1).
func parseTenantWeights(spec string) (map[string]int, error) {
	if spec == "" {
		return nil, nil
	}
	weights := make(map[string]int)
	for _, pair := range strings.Split(spec, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("bad pair %q: want name=weight", pair)
		}
		w, err := strconv.Atoi(val)
		if err != nil || w < 1 {
			return nil, fmt.Errorf("bad weight for tenant %q: want a positive integer, got %q", name, val)
		}
		if _, dup := weights[name]; dup {
			return nil, fmt.Errorf("tenant %q listed twice", name)
		}
		weights[name] = w
	}
	return weights, nil
}

// statusWriter records the response status for the access log.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

// logRequests writes one access-log line per request.
func logRequests(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(sw, r)
		log.Printf("%s %s %d %v", r.Method, r.URL.Path, sw.status, time.Since(start).Round(time.Microsecond))
	})
}
