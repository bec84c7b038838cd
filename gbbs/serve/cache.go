package serve

import (
	"context"
	"time"

	"repro/gbbs"
)

// Cache is the server's graph cache: built graphs keyed by their canonical
// (source, transforms) spec, so repeated requests against the same input
// skip Engine.Build entirely. It is the flight instantiation whose cost is
// approxGraphBytes and whose runs are detached: lookups are singleflight and
// completed entries are evicted least-recently-used once the approximate
// byte footprint exceeds the budget.
//
// Builds run detached from any single request (under the context given to
// NewCache, typically the server's lifetime): a tenant whose deadline
// expires mid-build stops waiting, but the build completes and the graph
// stays cached for the next request. Each waiter observes its own context
// while waiting.
type Cache struct {
	f *flight[gbbs.Graph]
}

// NewCache returns a cache evicting past approximately budget bytes.
// budget <= 0 disables caching entirely except for singleflight sharing of
// in-flight builds. Builds started by the cache run under buildCtx; cancel
// it (e.g. at server shutdown) to abort them.
func NewCache(buildCtx context.Context, budget int64) *Cache {
	if buildCtx == nil {
		buildCtx = context.Background()
	}
	return &Cache{f: newFlight(budget, approxGraphBytes, buildCtx)}
}

// GetOrBuild returns the graph cached under key, joining an in-flight build
// for the key if one is running, or starting build otherwise. The returned
// hit is false only for the caller that started the build. Waiting is
// bounded by ctx; the build itself is bounded only by the cache's build
// context, so a caller timing out does not abort the build for everyone
// else. A failed or panicking build (a source handed absurd parameters, a
// buggy custom loader) is reported to its waiters and not retained.
func (c *Cache) GetOrBuild(ctx context.Context, key string, build func(ctx context.Context) (gbbs.Graph, error)) (g gbbs.Graph, hit bool, err error) {
	return c.f.do(ctx, key, build)
}

// CacheStats is the snapshot GET /v1/cache returns.
type CacheStats struct {
	// BudgetBytes is the configured eviction budget.
	BudgetBytes int64 `json:"budget_bytes"`
	// SizeBytes is the approximate footprint of all completed entries.
	SizeBytes int64 `json:"size_bytes"`
	// Hits counts lookups that found an entry (completed or in-flight).
	Hits int64 `json:"hits"`
	// Misses counts lookups that had to start a build.
	Misses int64 `json:"misses"`
	// Evictions counts entries evicted to fit the budget.
	Evictions int64 `json:"evictions"`
	// Entries lists the cached graphs, most recently used first.
	Entries []CacheEntryStats `json:"entries"`
}

// CacheEntryStats describes one cache entry in CacheStats.
type CacheEntryStats struct {
	// Spec is the canonical (source, transforms) key.
	Spec string `json:"spec"`
	// Bytes is the entry's approximate in-memory size (0 while building).
	Bytes int64 `json:"bytes"`
	// Hits counts lookups served by this entry since it was inserted.
	Hits int64 `json:"hits"`
	// BuildNS is the wall-clock build time in nanoseconds.
	BuildNS int64 `json:"build_ns"`
	// Building reports an in-flight build.
	Building bool `json:"building,omitempty"`
	// LastUsed is when the entry was last returned.
	LastUsed time.Time `json:"last_used"`
}

// Stats returns a consistent snapshot of the cache's counters and entries.
func (c *Cache) Stats() CacheStats {
	n, entries := c.f.snapshot()
	s := CacheStats{
		BudgetBytes: n.budget,
		SizeBytes:   n.size,
		Hits:        n.hits,
		Misses:      n.misses,
		Evictions:   n.evictions,
		Entries:     make([]CacheEntryStats, 0, len(entries)),
	}
	for _, e := range entries {
		s.Entries = append(s.Entries, CacheEntryStats{
			Spec: e.key, Bytes: e.cost, Hits: e.hits, BuildNS: int64(e.took), Building: e.running, LastUsed: e.lastUsed,
		})
	}
	return s
}

// Invalidate removes the entry cached under exactly key, reporting whether
// one was present. An in-flight build keeps running and publishes to its
// waiters, but its result is not retained. Unrelated entries are untouched
// — this is the precise invalidation the update path uses.
func (c *Cache) Invalidate(key string) bool { return c.f.invalidate(key) }

// approxGraphBytes estimates a graph's resident size from its shape: for an
// uncompressed CSR, offsets (8B per vertex) plus neighbor IDs (4B per
// stored edge) plus weights (4B per edge when weighted); for the
// parallel-byte representation, the encoded payload plus the per-vertex
// degree and offset tables. Either way a directed graph is charged for its
// transpose too. It is an eviction heuristic, not an accounting guarantee.
func approxGraphBytes(g gbbs.Graph) int64 {
	n, m := int64(g.N()), int64(g.M())
	switch cg := g.(type) {
	case *gbbs.Compressed:
		bytes := cg.SizeBytes() + 12*n
		if tr, ok := cg.Transpose().(*gbbs.Compressed); ok && tr != cg {
			bytes += tr.SizeBytes() + 12*n
		}
		return bytes
	default:
		bytes := 8*(n+1) + 4*m
		if g.Weighted() {
			bytes += 4 * m
		}
		if !g.Symmetric() {
			bytes *= 2
		}
		return bytes
	}
}
