package serve

import (
	"context"
	"encoding/json"
	"time"

	"repro/gbbs"
)

// ResultCache is the server's deterministic result cache: completed
// RunResponse values keyed by the request's canonical fingerprint
// (gbbs.Request.Key — algorithm, canonical input spec, source vertex,
// resolved seed, normalized params). Every algorithm is deterministic in
// that tuple independent of thread count, so a cached response is exactly
// what a re-execution would compute; serving it costs microseconds instead
// of an algorithm run, which is the serving layer's biggest throughput
// lever for repeated tenant traffic.
//
// It is the flight instantiation whose cost is approxResponseBytes and whose
// runs are not detached: the first caller executes under its own context
// (holding its own admission grant), later arrivals wait on the entry, each
// bounded by its own context. A result is cheap to recompute relative to a
// build, and detaching would divorce the run from the admission grant that
// accounts for its worker threads.
//
// An entry's size approximates its in-memory footprint: the stored
// Result.Value dominates and is sized from its element count (4 bytes per
// []uint32 label and so on — see approxResponseBytes), so the budget
// bounds resident memory, not serialized response bytes (the JSON form of
// a label array is roughly twice its in-memory size).
type ResultCache struct {
	f *flight[RunResponse]
}

// NewResultCache returns a result cache evicting past approximately budget
// bytes. budget <= 0 disables retention entirely except for singleflight
// sharing of in-flight executions.
func NewResultCache(budget int64) *ResultCache {
	return &ResultCache{f: newFlight(budget, approxResponseBytes, nil)}
}

// GetOrRun returns the response cached under key, joining an in-flight
// execution for the key if one is running, or executing run otherwise. The
// returned hit is false only for a caller that executed. The executing
// caller's ctx bounds its run; waiters are bounded by their own ctx. A run
// that returns an error (or panics) is reported to its caller but never
// cached, and a waiter that joined a run failing on the *executor's* terms
// (its client disconnecting, its tighter deadline) does not inherit that
// error: it retries — executing itself if no newer run is in flight — so
// one tenant's cancellation cannot fail another tenant's valid request.
func (c *ResultCache) GetOrRun(ctx context.Context, key string, run func(ctx context.Context) (RunResponse, error)) (RunResponse, bool, error) {
	return c.f.do(ctx, key, run)
}

// Counters returns the cache's hit/miss counts and the number of resident
// completed entries without materializing a Stats snapshot — cheap enough
// for a liveness endpoint polled every few seconds.
func (c *ResultCache) Counters() (hits, misses int64, entries int) {
	n := c.f.counters()
	return n.hits, n.misses, n.completed
}

// Invalidate removes the entry cached under exactly key, reporting whether
// one was present. An in-flight execution keeps running and publishes to
// its waiters, but its result is not retained.
func (c *ResultCache) Invalidate(key string) bool { return c.f.invalidate(key) }

// InvalidateMatching removes every entry whose key satisfies pred and
// returns how many were removed. The update path uses it to drop exactly
// the results computed on superseded versions of one stored graph — the
// fingerprint embeds the snapshot ID, so the predicate can select one
// graph's keys without flushing anything else.
func (c *ResultCache) InvalidateMatching(pred func(key string) bool) int {
	return c.f.invalidateMatching(pred)
}

// ResultCacheStats is the result-cache snapshot GET /v1/cache returns.
type ResultCacheStats struct {
	// BudgetBytes is the configured eviction budget.
	BudgetBytes int64 `json:"budget_bytes"`
	// SizeBytes is the approximate footprint of all completed entries.
	SizeBytes int64 `json:"size_bytes"`
	// Hits counts lookups served by an entry (completed, or by joining an
	// in-flight run that succeeded). A join of a run that fails is not
	// counted: the waiter's retry counts once, as a miss.
	Hits int64 `json:"hits"`
	// Misses counts lookups that had to execute.
	Misses int64 `json:"misses"`
	// Evictions counts entries evicted to fit the budget.
	Evictions int64 `json:"evictions"`
	// Entries lists the cached results, most recently used first.
	Entries []ResultEntryStats `json:"entries"`
}

// ResultEntryStats describes one result-cache entry in ResultCacheStats.
type ResultEntryStats struct {
	// Key is the request's canonical fingerprint (gbbs.Request.Key).
	Key string `json:"key"`
	// Bytes is the entry's approximate size (0 while executing).
	Bytes int64 `json:"bytes"`
	// Hits counts lookups served by this entry since it was inserted.
	Hits int64 `json:"hits"`
	// Running reports an in-flight execution.
	Running bool `json:"running,omitempty"`
	// LastUsed is when the entry was last returned.
	LastUsed time.Time `json:"last_used"`
}

// Stats returns a consistent snapshot of the cache's counters and entries.
func (c *ResultCache) Stats() ResultCacheStats {
	n, entries := c.f.snapshot()
	s := ResultCacheStats{
		BudgetBytes: n.budget,
		SizeBytes:   n.size,
		Hits:        n.hits,
		Misses:      n.misses,
		Evictions:   n.evictions,
		Entries:     make([]ResultEntryStats, 0, len(entries)),
	}
	for _, e := range entries {
		s.Entries = append(s.Entries, ResultEntryStats{
			Key: e.key, Bytes: e.cost, Hits: e.hits, Running: e.running, LastUsed: e.lastUsed,
		})
	}
	return s
}

// approxResponseBytes estimates a cached response's resident size. The
// retained Result.Value (O(n) numbers for most algorithms) dominates, and
// the common value types are sized directly from their element counts —
// no serialization on the execution hot path. Uncommon value types fall
// back to the JSON-encoded length. An eviction heuristic, not an
// accounting guarantee.
func approxResponseBytes(resp RunResponse) int64 {
	// Envelope: response scalars, strings, the fingerprint and spec keys.
	size := int64(512 + len(resp.Key) + len(resp.Spec) + len(resp.Result.Summary))
	switch v := resp.Result.Value.(type) {
	case nil:
		return size
	case []uint32:
		return size + 4*int64(len(v))
	case []float64:
		return size + 8*int64(len(v))
	case []int64:
		return size + 8*int64(len(v))
	case []bool:
		return size + int64(len(v))
	case []gbbs.WEdge:
		return size + 12*int64(len(v))
	case int, int64, uint32, uint64, float64, bool:
		return size + 8
	default:
		data, err := json.Marshal(resp.Result.Value)
		if err != nil {
			return size
		}
		return size + int64(len(data))
	}
}
