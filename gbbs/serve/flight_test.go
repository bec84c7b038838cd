package serve

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/gbbs"
)

// flightCase is one production instantiation of flight as the contract
// suite sees it: a constructor taking the budget in values rather than
// bytes, and a source of fresh valid values that all cost the same.
type flightCase[V any] struct {
	name string
	new  func(units int64) *flight[V]
	val  func() V
}

// TestFlightContract runs one behavioural suite over the two production
// instantiations of flight — everything the graph cache and the result cache
// promise in common is checked once, here.
func TestFlightContract(t *testing.T) {
	ctx := context.Background()
	eng := gbbs.New(gbbs.WithThreads(1))
	defer eng.Close()
	g, err := eng.BuildCSR(ctx, gbbs.Path(100), gbbs.Symmetrize())
	if err != nil {
		t.Fatal(err)
	}

	runFlightContract(t, flightCase[gbbs.Graph]{
		name: "graph cache",
		new:  func(units int64) *flight[gbbs.Graph] { return NewCache(ctx, units*approxGraphBytes(g)).f },
		val:  func() gbbs.Graph { return g },
	})
	resp := RunResponse{Algorithm: "test"}
	runFlightContract(t, flightCase[RunResponse]{
		name: "result cache",
		new:  func(units int64) *flight[RunResponse] { return NewResultCache(units * approxResponseBytes(resp)).f },
		val:  func() RunResponse { return resp },
	})
}

// waitFor polls cond until it holds; the conditions used here are flight
// counters reaching a value another goroutine is about to produce.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// checkAccounting asserts the invariant publish-and-account under one lock
// exists to keep: size is exactly the summed cost of the resident entries,
// never negative, and completed counts the ones not running.
func checkAccounting[V any](t *testing.T, f *flight[V]) (keys []string) {
	t.Helper()
	n, entries := f.snapshot()
	var sum int64
	completed := 0
	for _, e := range entries {
		keys = append(keys, e.key)
		sum += e.cost
		if !e.running {
			completed++
		}
	}
	if n.size != sum || n.size < 0 || n.completed != completed {
		t.Fatalf("size=%d completed=%d, but entries sum to %d with %d completed: %+v", n.size, n.completed, sum, completed, entries)
	}
	return keys
}

func runFlightContract[V any](t *testing.T, c flightCase[V]) {
	ctx := context.Background()
	boom := errors.New("boom")
	// produce returns a run yielding a fresh value and counting invocations.
	produce := func(runs *atomic.Int64) func(context.Context) (V, error) {
		return func(context.Context) (V, error) {
			runs.Add(1)
			return c.val(), nil
		}
	}
	// blocked returns a run that parks until release is closed, then yields
	// (c.val(), err).
	blocked := func(release <-chan struct{}, err error) func(context.Context) (V, error) {
		return func(context.Context) (V, error) {
			<-release
			return c.val(), err
		}
	}
	must := func(t *testing.T, f *flight[V], key string, runs *atomic.Int64, wantHit bool) {
		t.Helper()
		if _, hit, err := f.do(ctx, key, produce(runs)); err != nil || hit != wantHit {
			t.Fatalf("do(%q): hit=%v err=%v, want hit=%v", key, hit, err, wantHit)
		}
	}

	t.Run(c.name+"/singleflight dedup", func(t *testing.T) {
		f := c.new(4)
		const callers = 16
		release := make(chan struct{})
		var runs, hits atomic.Int64
		var wg sync.WaitGroup
		for i := 0; i < callers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, hit, err := f.do(ctx, "k", func(context.Context) (V, error) {
					runs.Add(1)
					<-release
					return c.val(), nil
				})
				if err != nil {
					t.Error(err)
				}
				if hit {
					hits.Add(1)
				}
			}()
		}
		waitFor(t, "every caller to join", func() bool { n := f.counters(); return n.hits+n.misses == callers })
		close(release)
		wg.Wait()
		if n := f.counters(); runs.Load() != 1 || hits.Load() != callers-1 || n.hits != callers-1 || n.misses != 1 {
			t.Fatalf("runs=%d caller hits=%d counters=%+v, want 1 run shared by %d callers", runs.Load(), hits.Load(), n, callers)
		}
		checkAccounting(t, f)
	})

	t.Run(c.name+"/hit skips run", func(t *testing.T) {
		f := c.new(4)
		var runs atomic.Int64
		must(t, f, "k", &runs, false)
		must(t, f, "k", &runs, true)
		must(t, f, "k", &runs, true)
		if runs.Load() != 1 {
			t.Fatalf("3 sequential identical requests ran %d times, want 1", runs.Load())
		}
	})

	t.Run(c.name+"/LRU order under budget", func(t *testing.T) {
		f := c.new(2)
		var runs atomic.Int64
		must(t, f, "a", &runs, false)
		must(t, f, "b", &runs, false)
		must(t, f, "a", &runs, true) // touch: b becomes least recently used
		must(t, f, "c", &runs, false)
		if keys := checkAccounting(t, f); fmt.Sprint(keys) != "[c a]" {
			t.Fatalf("entries after eviction = %v, want [c a]", keys)
		}
		if n := f.counters(); n.evictions != 1 || n.size > n.budget {
			t.Fatalf("counters = %+v, want one eviction within budget", n)
		}
		must(t, f, "b", &runs, false) // the evicted key runs again
	})

	t.Run(c.name+"/eviction skips in-flight entries", func(t *testing.T) {
		f := c.new(1)
		release := make(chan struct{})
		done := make(chan error, 1)
		go func() {
			_, _, err := f.do(ctx, "slow", blocked(release, nil))
			done <- err
		}()
		waitFor(t, "the slow run to register", func() bool { return f.counters().misses == 1 })
		var runs atomic.Int64
		must(t, f, "a", &runs, false)
		must(t, f, "b", &runs, false) // over budget: evicts a, cannot evict slow
		if keys := checkAccounting(t, f); fmt.Sprint(keys) != "[b slow]" {
			t.Fatalf("entries = %v, want the running entry kept beside the newest", keys)
		}
		close(release)
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		// Published as the least recently used entry of an over-full table.
		if keys := checkAccounting(t, f); fmt.Sprint(keys) != "[b]" || f.counters().evictions != 2 {
			t.Fatalf("entries = %v evictions=%d, want [b] after 2 evictions", keys, f.counters().evictions)
		}
	})

	t.Run(c.name+"/failures and panics are not retained", func(t *testing.T) {
		f := c.new(4)
		if _, hit, err := f.do(ctx, "k", func(context.Context) (V, error) { return c.val(), boom }); !errors.Is(err, boom) || hit {
			t.Fatalf("failing run: hit=%v err=%v", hit, err)
		}
		if _, _, err := f.do(ctx, "k", func(context.Context) (V, error) { panic("kaboom") }); err == nil || !strings.Contains(err.Error(), "kaboom") {
			t.Fatalf("panicking run: err=%v, want the panic as an error", err)
		}
		if keys := checkAccounting(t, f); len(keys) != 0 {
			t.Fatalf("failed entries retained: %v", keys)
		}
		// Neither poisoned the key: a bounded retry runs afresh.
		short, cancel := context.WithTimeout(ctx, 5*time.Second)
		defer cancel()
		var runs atomic.Int64
		if _, hit, err := f.do(short, "k", produce(&runs)); err != nil || hit || runs.Load() != 1 {
			t.Fatalf("retry after failures: hit=%v err=%v runs=%d", hit, err, runs.Load())
		}
		// A waiter joined to a run that fails on the request's own terms gets
		// that error; it does not run again.
		release := make(chan struct{})
		leader := make(chan error, 1)
		go func() {
			_, _, err := f.do(ctx, "bad", blocked(release, boom))
			leader <- err
		}()
		waitFor(t, "the failing run to register", func() bool { return f.counters().misses == 4 })
		waiter := make(chan error, 1)
		go func() {
			_, _, err := f.do(ctx, "bad", produce(&runs))
			waiter <- err
		}()
		waitFor(t, "the waiter to join", func() bool { return f.counters().hits == 1 })
		close(release)
		if l, w := <-leader, <-waiter; !errors.Is(l, boom) || !errors.Is(w, boom) || runs.Load() != 1 {
			t.Fatalf("leader err=%v waiter err=%v runs=%d, want both to see boom without a rerun", l, w, runs.Load())
		}
	})

	t.Run(c.name+"/waiter deadline", func(t *testing.T) {
		f := c.new(4)
		release := make(chan struct{})
		done := make(chan error, 1)
		go func() {
			_, _, err := f.do(ctx, "k", blocked(release, nil))
			done <- err
		}()
		waitFor(t, "the run to register", func() bool { return f.counters().misses == 1 })
		short, cancel := context.WithTimeout(ctx, 10*time.Millisecond)
		defer cancel()
		if _, hit, err := f.do(short, "k", nil); !hit || !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("waiter: hit=%v err=%v, want its own deadline while joined", hit, err)
		}
		close(release)
		if err := <-done; err != nil {
			t.Fatalf("the waiter's deadline disturbed the run: %v", err)
		}
		var runs atomic.Int64
		must(t, f, "k", &runs, true)
	})

	t.Run(c.name+"/waiter retries executor cancellation", func(t *testing.T) {
		f := c.new(4)
		release := make(chan struct{})
		go f.do(ctx, "k", blocked(release, context.Canceled)) //nolint:errcheck // the executor's client went away
		waitFor(t, "the run to register", func() bool { return f.counters().misses == 1 })
		var runs atomic.Int64
		done := make(chan error, 1)
		go func() {
			_, hit, err := f.do(ctx, "k", produce(&runs))
			if hit {
				err = errors.Join(err, errors.New("retried run reported a hit"))
			}
			done <- err
		}()
		waitFor(t, "the waiter to join", func() bool { return f.counters().hits == 1 })
		close(release)
		if err := <-done; err != nil || runs.Load() != 1 {
			t.Fatalf("waiter err=%v runs=%d, want its own successful run", err, runs.Load())
		}
		must(t, f, "k", &runs, true)
		// The failed join was not a hit: leader miss, retry miss, final hit.
		if n := f.counters(); n.hits != 1 || n.misses != 2 || n.completed != 1 {
			t.Fatalf("counters = %+v, want 1 hit / 2 misses / 1 completed", n)
		}
	})

	t.Run(c.name+"/invalidate during run", func(t *testing.T) {
		f := c.new(4)
		releaseOld, releaseNew := make(chan struct{}), make(chan struct{})
		oldDone, newDone := make(chan error, 1), make(chan error, 1)
		go func() {
			_, _, err := f.do(ctx, "k", blocked(releaseOld, nil))
			oldDone <- err
		}()
		waitFor(t, "the old run to register", func() bool { return f.counters().misses == 1 })
		if !f.invalidate("k") || f.invalidate("k") {
			t.Fatal("invalidate: want true for the running entry, then false")
		}
		go func() {
			_, _, err := f.do(ctx, "k", blocked(releaseNew, nil))
			newDone <- err
		}()
		waitFor(t, "the key to be re-inserted", func() bool { return f.counters().misses == 2 })

		// The stale run completes against the re-inserted key: its caller is
		// served, nothing is accounted, the newer entry is still running.
		close(releaseOld)
		if err := <-oldDone; err != nil {
			t.Fatal(err)
		}
		if n, entries := f.snapshot(); n.size != 0 || len(entries) != 1 || !entries[0].running {
			t.Fatalf("after stale publish: counters=%+v entries=%+v, want only the running newer entry", n, entries)
		}
		close(releaseNew)
		if err := <-newDone; err != nil {
			t.Fatal(err)
		}
		if keys := checkAccounting(t, f); len(keys) != 1 || f.counters().completed != 1 {
			t.Fatalf("entries = %v, want the one newer entry retained", keys)
		}
		var runs atomic.Int64
		must(t, f, "k", &runs, true)
	})

	// Invalidation and eviction hammered against concurrent runs: the byte
	// total must come out exact (it went negative when publish and account
	// were two steps).
	t.Run(c.name+"/accounting under concurrent invalidation", func(t *testing.T) {
		f := c.new(2)
		var produced atomic.Int64
		keys := []string{"a", "b", "c", "d"}
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(2)
			go func() {
				defer wg.Done()
				for i := 0; i < 200; i++ {
					if _, _, err := f.do(ctx, keys[(i+w)%len(keys)], produce(&produced)); err != nil {
						t.Error(err)
					}
				}
			}()
			go func() {
				defer wg.Done()
				for i := 0; i < 200; i++ {
					f.invalidate(keys[(i+w)%len(keys)])
					if i%50 == 0 {
						f.invalidateMatching(func(k string) bool { return k < "c" })
					}
				}
			}()
		}
		wg.Wait()
		checkAccounting(t, f)
		if n := f.counters(); n.size > n.budget {
			t.Fatalf("quiescent size %d over budget %d", n.size, n.budget)
		}
	})
}
