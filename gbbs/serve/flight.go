package serve

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// flight is the serving layer's one cache mechanism: a keyed table with
// singleflight production (concurrent callers of one key share one run of
// its producer) and least-recently-used eviction of completed entries once
// their summed cost exceeds a budget. The graph cache (Cache) and the result
// cache (ResultCache) are its two instantiations; they differ only in what
// newFlight takes — how a value is costed and whether runs are detached
// from the caller that started them.
//
// The invariants every instantiation gets:
//
//   - An entry is published (ready closed) and accounted — or, for a
//     failure, removed — in one critical section, so size is always exactly
//     the summed cost of the resident completed entries.
//   - Failures and panics are never retained: the run's caller and the
//     waiters that joined it get the error, the next request retries.
//   - A waiter is bounded by its own context only. One that joined a run
//     which died of its executor's cancellation or deadline, while its own
//     context is still live, retries instead of inheriting that error.
//   - In-flight entries are never evicted. Invalidating one unlinks it: the
//     run still publishes to its waiters but its value is not retained, and
//     a newer entry re-inserted under the key is left alone.
//
// The async job table (jobs.go) is deliberately not a third instantiation:
// it is a registry addressed by job ID, retained by TTL rather than cost,
// with per-tenant queue positions and cancellation — sharing this type
// would make every method here branch on which caller it serves.
type flight[V any] struct {
	cost   func(V) int64
	detach context.Context // nil: runs execute on the calling goroutine under its context

	mu      sync.Mutex
	entries map[string]*flightEntry[V]
	lru     *list.List // of *flightEntry[V], front = most recently used
	flightCounters
}

// flightCounters is a flight's scalar state; all but budget are guarded by
// the flight's mutex.
type flightCounters struct {
	budget    int64
	size      int64 // summed cost of resident completed entries
	completed int   // resident completed entries

	hits, misses, evictions int64
}

// flightInfo is what a snapshot reports of one entry. val, cost and took are
// zero while running and immutable afterwards; running, hits and lastUsed
// are guarded by the flight's mutex.
type flightInfo[V any] struct {
	key      string
	val      V
	cost     int64
	took     time.Duration
	hits     int64
	running  bool
	lastUsed time.Time
}

// flightEntry is one resident (or in-flight) value. ready is closed, under
// the flight's mutex, in the same step that clears running and sets err.
type flightEntry[V any] struct {
	flightInfo[V]
	err   error
	ready chan struct{}
	elem  *list.Element
}

// newFlight returns a table evicting past budget units of cost. cost sizes a
// successfully produced value. detach, when non-nil, makes every run execute
// on its own goroutine under that context instead of under its first
// caller's, so a caller giving up does not abort the run for the others.
func newFlight[V any](budget int64, cost func(V) int64, detach context.Context) *flight[V] {
	return &flight[V]{
		cost:           cost,
		detach:         detach,
		entries:        make(map[string]*flightEntry[V]),
		lru:            list.New(),
		flightCounters: flightCounters{budget: budget},
	}
}

// do returns the value resident under key, joining an in-flight run for the
// key if there is one, or producing it with run otherwise. hit is false only
// for the caller whose run it was. Waiting is bounded by ctx.
func (f *flight[V]) do(ctx context.Context, key string, run func(ctx context.Context) (V, error)) (val V, hit bool, err error) {
	for {
		f.mu.Lock()
		e, joined := f.entries[key]
		if joined {
			e.hits++
			e.lastUsed = time.Now()
			f.lru.MoveToFront(e.elem)
			f.hits++
		} else {
			e = &flightEntry[V]{ready: make(chan struct{})}
			e.key, e.running, e.lastUsed = key, true, time.Now()
			e.elem = f.lru.PushFront(e)
			f.entries[key] = e
			f.misses++
		}
		f.mu.Unlock()

		if !joined {
			if f.detach == nil {
				f.produce(ctx, e, run)
				return e.val, false, e.err
			}
			go f.produce(f.detach, e, run)
		}
		select {
		case <-e.ready:
		case <-ctx.Done():
			return val, joined, ctx.Err()
		}
		executorGaveUp := errors.Is(e.err, context.Canceled) || errors.Is(e.err, context.DeadlineExceeded)
		if !joined || !executorGaveUp || ctx.Err() != nil {
			return e.val, joined, e.err
		}
		// Nothing was served from the table: the retry counts once, as a miss.
		f.mu.Lock()
		f.hits--
		f.mu.Unlock()
	}
}

// produce executes one run and publishes its entry. A panicking run becomes
// the entry's error: a detached run has no caller to unwind into, and an
// entry left unready would park every later request until its deadline.
func (f *flight[V]) produce(ctx context.Context, e *flightEntry[V], run func(ctx context.Context) (V, error)) {
	start := time.Now()
	val, cost, err := func() (val V, cost int64, err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("serve: panic producing %q: %v", e.key, r)
			}
		}()
		if val, err = run(ctx); err == nil {
			cost = f.cost(val)
		}
		return val, cost, err
	}()

	f.mu.Lock()
	defer f.mu.Unlock()
	e.val, e.err, e.cost, e.took = val, err, cost, time.Since(start)
	e.running = false
	close(e.ready)
	resident := f.entries[e.key] == e
	switch {
	case resident && err == nil:
		f.size += cost
		f.completed++
		f.evictLocked()
	case resident:
		f.removeLocked(e)
	}
}

// evictLocked evicts completed least-recently-used entries until the size
// fits the budget. A value costing more than the whole budget is evicted as
// soon as it is published — its callers already hold it.
func (f *flight[V]) evictLocked() {
	for elem := f.lru.Back(); elem != nil && f.size > f.budget; {
		e := elem.Value.(*flightEntry[V])
		elem = elem.Prev()
		if !e.running {
			f.removeLocked(e)
			f.evictions++
		}
	}
}

// removeLocked unlinks a resident entry, reclaiming its cost if it completed
// successfully.
func (f *flight[V]) removeLocked(e *flightEntry[V]) {
	delete(f.entries, e.key)
	f.lru.Remove(e.elem)
	if !e.running && e.err == nil {
		f.size -= e.cost
		f.completed--
	}
}

// invalidate removes the entry under exactly key, reporting whether one was
// resident.
func (f *flight[V]) invalidate(key string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	e, ok := f.entries[key]
	if ok {
		f.removeLocked(e)
	}
	return ok
}

// invalidateMatching removes every entry whose key satisfies pred and
// returns how many were removed.
func (f *flight[V]) invalidateMatching(pred func(key string) bool) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	removed := 0
	for key, e := range f.entries {
		if pred(key) {
			f.removeLocked(e)
			removed++
		}
	}
	return removed
}

// counters returns the scalar state without materializing the entries.
func (f *flight[V]) counters() flightCounters {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.flightCounters
}

// snapshot returns the counters and the entries, most recently used first,
// as of one instant.
func (f *flight[V]) snapshot() (flightCounters, []flightInfo[V]) {
	f.mu.Lock()
	defer f.mu.Unlock()
	infos := make([]flightInfo[V], 0, f.lru.Len())
	for elem := f.lru.Front(); elem != nil; elem = elem.Next() {
		infos = append(infos, elem.Value.(*flightEntry[V]).flightInfo)
	}
	return f.flightCounters, infos
}
