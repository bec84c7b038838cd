package parallel

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestNestedForRangeInsideForRange drives two levels of ForRange on one
// scheduler with small grains so inner loops really publish tasks while
// outer blocks hold the pool's workers. Every (i, j) cell must be covered
// exactly once and the call must not deadlock.
func TestNestedForRangeInsideForRange(t *testing.T) {
	for _, p := range []int{2, 4, 8} {
		s := New(p)
		const n, m = 48, 512
		seen := make([]int32, n*m)
		s.ForRange(n, 1, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				s.ForRange(m, 32, func(jlo, jhi int) {
					for j := jlo; j < jhi; j++ {
						atomic.AddInt32(&seen[i*m+j], 1)
					}
				})
			}
		})
		for idx, c := range seen {
			if c != 1 {
				t.Fatalf("p=%d: cell %d covered %d times", p, idx, c)
			}
		}
		s.Close()
	}
}

// TestDeepDoRecursion forks a full binary tree of Do calls (the shape of
// the parallel sorts) deep enough that lazy reclaiming must kick in on a
// small pool.
func TestDeepDoRecursion(t *testing.T) {
	s := New(4)
	defer s.Close()
	var leaves atomic.Int64
	var walk func(depth int)
	walk = func(depth int) {
		if depth == 0 {
			leaves.Add(1)
			return
		}
		s.Do(func() { walk(depth - 1) }, func() { walk(depth - 1) })
	}
	walk(12)
	if got := leaves.Load(); got != 1<<12 {
		t.Fatalf("leaves = %d, want %d", got, 1<<12)
	}
}

// TestConcurrentIndependentLoopsOneScheduler issues many simultaneous
// independent loops against a single shared scheduler; each submitter must
// drive its own loop to completion with the correct result.
func TestConcurrentIndependentLoopsOneScheduler(t *testing.T) {
	s := New(4)
	defer s.Close()
	const loops = 16
	var wg sync.WaitGroup
	for l := 0; l < loops; l++ {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			for iter := 0; iter < 25; iter++ {
				n := 2000 + 137*l
				var sum atomic.Int64
				s.ForRange(n, 64, func(lo, hi int) {
					local := int64(0)
					for i := lo; i < hi; i++ {
						local += int64(i)
					}
					sum.Add(local)
				})
				if want := int64(n) * int64(n-1) / 2; sum.Load() != want {
					t.Errorf("loop %d iter %d: sum %d, want %d", l, iter, sum.Load(), want)
					return
				}
			}
		}(l)
	}
	wg.Wait()
}

// TestAttachChildrenShareParentPool checks the lifecycle contract: Attach
// children run on the parent's pool (no per-call worker set), including
// children created and used while a parent loop is in flight.
func TestAttachChildrenShareParentPool(t *testing.T) {
	s := New(4)
	defer s.Close()
	if child := s.Attach(context.Background()); child.pool != s.pool {
		t.Fatal("Attach child does not share the parent's pool")
	}

	// Children attached and driven from inside a running parent loop.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var total atomic.Int64
	s.ForRange(8, 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			child := s.Attach(ctx)
			child.ForRange(1000, 50, func(jlo, jhi int) {
				total.Add(int64(jhi - jlo))
			})
		}
	})
	if total.Load() != 8*1000 {
		t.Fatalf("children covered %d elements, want %d", total.Load(), 8*1000)
	}
}

// TestAttachChildObservesCancelDuringParentLoop runs a child under a
// cancelled context inside a parent loop: the child's Poll must unwind with
// the context error while the parent loop keeps working.
func TestAttachChildObservesCancelDuringParentLoop(t *testing.T) {
	s := New(4)
	defer s.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var unwound atomic.Int64
	s.ForRange(6, 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			child := s.Attach(ctx)
			err := func() (err error) {
				defer RecoverStop(&err)
				child.Poll()
				return nil
			}()
			if err != nil {
				unwound.Add(1)
			}
		}
	})
	if unwound.Load() != 6 {
		t.Fatalf("%d of 6 children observed cancellation", unwound.Load())
	}
}

// TestCloseIsIdempotentAndDegradesInline verifies Close twice is safe, that
// loops after Close still produce correct results (inline), and that Close
// on an Attach child leaves the parent's pool alive.
func TestCloseIsIdempotentAndDegradesInline(t *testing.T) {
	s := New(4)
	s.Close()
	s.Close()
	var sum atomic.Int64
	s.ForRange(5000, 64, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			sum.Add(int64(i))
		}
	})
	if want := int64(5000) * 4999 / 2; sum.Load() != want {
		t.Fatalf("post-Close sum = %d, want %d", sum.Load(), want)
	}
	var a, b atomic.Bool
	s.Do(func() { a.Store(true) }, func() { b.Store(true) })
	if !a.Load() || !b.Load() {
		t.Fatal("post-Close Do dropped a branch")
	}

	parent := New(4)
	defer parent.Close()
	child := parent.Attach(context.Background())
	child.Close() // no-op: the pool belongs to parent
	var count atomic.Int64
	parent.For(4000, 64, func(i int) { count.Add(1) })
	if count.Load() != 4000 {
		t.Fatalf("parent loop after child Close: %d of 4000", count.Load())
	}
}

// TestPoolWorkersAutoParkAfterIdle shortens the idle timeout and checks the
// pool decays to zero goroutines with no Close, then revives on demand.
func TestPoolWorkersAutoParkAfterIdle(t *testing.T) {
	s := New(4)
	s.pool.idle = 20 * time.Millisecond
	var count atomic.Int64
	s.For(100000, 64, func(i int) { count.Add(1) })
	if count.Load() != 100000 {
		t.Fatalf("loop covered %d", count.Load())
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.PoolWorkers() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("pool still has %d workers after idle timeout", s.PoolWorkers())
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The pool must revive lazily after decaying.
	count.Store(0)
	s.For(100000, 64, func(i int) { count.Add(1) })
	if count.Load() != 100000 {
		t.Fatalf("revived loop covered %d", count.Load())
	}
	s.Close()
}

// TestDoClaimsEverythingWithBusyPool saturates the pool with a long loop
// while issuing Do from another goroutine: with no free workers the
// submitter must claim both functions itself.
func TestDoClaimsEverythingWithBusyPool(t *testing.T) {
	s := New(2)
	defer s.Close()
	release := make(chan struct{})
	var outer sync.WaitGroup
	outer.Add(1)
	go func() {
		defer outer.Done()
		s.ForRange(2, 1, func(lo, hi int) {
			<-release
		})
	}()
	var ran atomic.Int32
	s.Do(func() { ran.Add(1) }, func() { ran.Add(1) }) // must complete while the pool worker is blocked above
	if ran.Load() != 2 {
		t.Fatalf("Do ran %d of 2 with a busy pool", ran.Load())
	}
	close(release)
	outer.Wait()
}

// TestCancellationPromptUnderPoolLoad is the GOMAXPROCS=1 starvation
// regression: a submitter/worker pair handing work off through direct
// wakeups can monopolize the processor, so the goroutine calling cancel()
// never runs and a round loop that only exits via Poll spins forever.
// Poll's yield bounds cancellation latency at a few rounds; without it this
// test runs into its 30-second guard.
func TestCancellationPromptUnderPoolLoad(t *testing.T) {
	s := New(2)
	defer s.Close()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	child := s.Attach(ctx)
	x := make([]int64, 100_000)
	start := time.Now()
	err := func() (err error) {
		defer RecoverStop(&err)
		for { // round loop: exits only through Poll's unwind
			child.ForRange(len(x), 4096, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					x[i]++
				}
			})
			child.Poll()
			if time.Since(start) > 30*time.Second {
				return nil
			}
		}
	}()
	if err == nil {
		t.Fatalf("cancellation never observed after %v of round loops", time.Since(start))
	}
}

// TestPanickingBodyUnpublishesTask: a body panic on the submitting
// goroutine (recoverable by callers, e.g. the serve layer's build-panic
// recovery) must not strand the published task in the shared pool, where a
// later loop's workers would execute its leftover blocks against abandoned
// state. The pool's only worker is pinned by a blocker loop so every block
// of the panicking loop runs on the submitter.
func TestPanickingBodyUnpublishesTask(t *testing.T) {
	s := New(2)
	defer s.Close()
	release := make(chan struct{})
	var entered atomic.Int32
	var outer sync.WaitGroup
	outer.Add(1)
	go func() {
		defer outer.Done()
		s.ForRange(2, 1, func(lo, hi int) {
			entered.Add(1)
			<-release
		})
	}()
	for entered.Load() != 2 { // submitter + the one pool worker both pinned
		time.Sleep(time.Millisecond)
	}

	recovered := func() (r any) {
		defer func() { r = recover() }()
		s.ForRange(1000, 10, func(lo, hi int) { panic("boom") })
		return nil
	}()
	if recovered != "boom" {
		t.Fatalf("recovered %v, want the body's panic", recovered)
	}
	// The blocker task may legitimately still be listed (it is in flight,
	// fully claimed); stale means a task a worker could still claim from.
	s.pool.mu.Lock()
	stale := 0
	for _, pt := range s.pool.tasks {
		if pt.next.Load() < pt.blocks {
			stale++
		}
	}
	s.pool.mu.Unlock()
	if stale != 0 {
		t.Fatalf("%d claimable tasks left published after a panicking loop", stale)
	}

	close(release)
	outer.Wait()
	var count atomic.Int64
	s.For(5000, 64, func(i int) { count.Add(1) }) // pool must still work
	if count.Load() != 5000 {
		t.Fatalf("post-panic loop covered %d of 5000", count.Load())
	}
}
