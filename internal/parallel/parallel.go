// Package parallel provides the nested fork-join runtime used by every
// parallel primitive and algorithm in this repository.
//
// The paper analyses algorithms in the MT-RAM (multi-threaded RAM) model and
// implements them with Cilk Plus, whose work-stealing scheduler executes an
// algorithm with W work and D depth in W/P + O(D) expected time on P
// processors. Goroutines are too coarse to fork per element, so this package
// schedules *blocks*: a parallel loop over n items is split into chunks of a
// caller-controlled grain size, and workers claim chunks with an atomic
// counter — the dynamic load balancing of a work-stealing scheduler without
// per-element forks.
//
// Each Scheduler owns a lazily-started pool of persistent workers. A
// parallel loop does not spawn goroutines: it publishes a task descriptor
// (range, grain, body, atomic claim counter), wakes parked pool workers
// through per-worker channels, and the submitting goroutine itself claims
// chunks alongside them, joining through the task's atomic counter when its
// own claims run out. Round-based algorithms (one EdgeMap per BFS level,
// ρ peeling rounds in k-core) therefore pay a wake/park handshake per round
// instead of P goroutine creations. Do rides the same task machinery:
// a fork is published, the caller runs its own half, then reclaims the other
// half inline if no worker picked it up — no channel is allocated on the
// fork-join path.
//
// Nesting can never deadlock: workers are pure helpers, and every loop is
// fully driven by its submitter, so a ForRange body issuing another ForRange
// on the same scheduler just makes the calling worker the inner loop's
// submitter while parked siblings lend a hand. Attach(ctx) children share
// the parent's pool (plus a cancellation signal), so an Engine's whole call
// tree draws from one resident worker set. Workers park between tasks and
// exit after an idle timeout — an abandoned Scheduler decays to zero
// goroutines — and Close parks the pool immediately and permanently
// (operations afterwards still run correctly, inline on their callers).
//
// The runtime is instance-based and there is no process-wide scheduler: a
// Scheduler carries its own fixed worker count, pool and optional
// cancellation signal, and every parallel operation runs on the Scheduler
// it is handed. Independent callers — e.g. two gbbs.Engine values serving
// different requests — therefore run concurrently with different
// parallelism and no shared state.
//
// A Scheduler with one worker (New(1)) runs every operation inline with zero
// scheduling overhead and never starts a worker; this is how the
// single-thread columns of the paper's Tables 2, 4 and 5 are measured.
package parallel

import (
	"context"
	"runtime"
)

// Scheduler executes parallel loops and fork-join tasks on a persistent,
// lazily-started pool of worker goroutines. The zero value is not usable;
// construct with New. A Scheduler is safe for concurrent use: independent
// loops issued against the same Scheduler at once share the pool's workers
// and each is driven to completion by its own submitting goroutine.
type Scheduler struct {
	workers int // fixed at New, copied by Attach; never written afterwards
	grain   int // default grain override; 0 selects the automatic grain
	// pool is the persistent worker set, shared with every Attach child so
	// an engine's whole call tree draws from one resident pool. owner marks
	// the Scheduler that created the pool: Close parks the pool only through
	// its owner.
	pool  *pool
	owner bool
	// done/err carry an optional cancellation signal attached with
	// Attach(ctx). Poll panics with a stopPanic when done is closed;
	// RecoverStop converts that panic back into an error at the API
	// boundary. They are immutable after construction.
	done <-chan struct{}
	err  func() error
}

// New returns a Scheduler that runs parallel operations with parallelism p:
// the submitting goroutine plus up to p-1 pooled workers, spawned on first
// demand. p < 1 selects 1 (fully sequential); use runtime.NumCPU() for the
// hardware parallelism.
func New(p int) *Scheduler {
	if p < 1 {
		p = 1
	}
	return &Scheduler{workers: p, pool: newPool(p - 1), owner: true}
}

// NewWithGrain returns a Scheduler with a fixed default grain size used when
// a loop does not specify one. grain <= 0 keeps the automatic heuristic.
func NewWithGrain(p, grain int) *Scheduler {
	s := New(p)
	if grain > 0 {
		s.grain = grain
	}
	return s
}

// Workers reports the scheduler's worker count.
func (s *Scheduler) Workers() int { return s.workers }

// Close parks the scheduler's worker pool permanently: parked workers exit,
// busy ones finish their current task first, and no new workers spawn.
// Operations issued after Close still run correctly, inline on their calling
// goroutines. Close is idempotent, and a no-op on Attach children (the pool
// belongs to the scheduler that created it). Even without Close, an idle
// pool decays to zero goroutines on its own after an idle timeout.
func (s *Scheduler) Close() {
	if s.owner {
		s.pool.close()
	}
}

// PoolWorkers reports the pool's currently live worker goroutines (parked
// or busy). It is a diagnostics hook for tests and serving-layer stats; the
// count is naturally racy.
func (s *Scheduler) PoolWorkers() int { return s.pool.workerCount() }

// Attach returns a child scheduler that shares s's worker pool — so an
// engine's whole call tree runs on one resident worker set — and s's worker
// count, and additionally observes ctx: once
// ctx is done, Poll on the child panics with a cancellation token that
// RecoverStop translates into ctx.Err(). Attach is how a gbbs.Engine scopes
// one algorithm invocation to one request context. A nil or background-like
// ctx (ctx.Done() == nil) returns a child with no cancellation signal.
func (s *Scheduler) Attach(ctx context.Context) *Scheduler {
	child := &Scheduler{workers: s.workers, grain: s.grain, pool: s.pool}
	if ctx != nil && ctx.Done() != nil {
		child.done = ctx.Done()
		child.err = ctx.Err
	}
	return child
}

// stopPanic is the token Poll throws when the attached context is done. It
// deliberately does not implement error: an unrecovered stopPanic (a Poll
// outside RecoverStop) should crash loudly rather than be mistaken for a
// value.
type stopPanic struct{ err error }

// Poll checks the cancellation signal attached with Attach and panics with a
// stop token if the context is done. Algorithms call it between rounds (not
// inside loop bodies — the panic must unwind the algorithm's own goroutine).
// On a scheduler with no attached context it is a single nil check.
//
// When a signal is attached, Poll also yields the processor. The pooled
// runtime hands work between the submitter and its workers through direct
// wakeups, which on a saturated GOMAXPROCS (notably 1) can keep the pair
// running in each other's favor and starve the goroutine that would call
// cancel() — the context's Done channel then never closes and Poll never
// fires. A Gosched per round forces a trip through the Go scheduler (which
// runs expired timers and queued goroutines), bounding cancellation latency
// at a few rounds; uncancellable paths (the benchmark columns) skip it
// entirely.
func (s *Scheduler) Poll() {
	if s.done == nil {
		return
	}
	runtime.Gosched()
	select {
	case <-s.done:
		err := context.Canceled
		if s.err != nil {
			if e := s.err(); e != nil {
				err = e
			}
		}
		panic(stopPanic{err})
	default:
	}
}

// RecoverStop recovers a stop token thrown by Poll and stores its error
// (ctx.Err()) into *err; any other panic is re-raised. Use it as
// `defer parallel.RecoverStop(&err)` at the boundary that called Attach.
func RecoverStop(err *error) {
	if r := recover(); r != nil {
		if sp, ok := r.(stopPanic); ok {
			*err = sp.err
			return
		}
		panic(r)
	}
}

// grainFor picks a default grain: enough blocks for dynamic load balancing
// (8 per worker) without making blocks so small that scheduling dominates.
// The floor matters for round-based algorithms (k-core peels ρ rounds, BFS
// diam rounds): sub-512-element rounds run inline rather than paying
// goroutine-spawn latency per round.
func grainFor(n, p int) int {
	g := n / (8 * p)
	if g < 512 {
		g = 512
	}
	return g
}

func (s *Scheduler) grainOf(n, grain, p int) int {
	if grain > 0 {
		return grain
	}
	if s.grain > 0 {
		return s.grain
	}
	return grainFor(n, p)
}

// ForRange runs body over the half-open range [0, n) split into chunks of at
// most grain elements. body receives [lo, hi) sub-ranges and is called
// concurrently from multiple goroutines; distinct calls never overlap.
// grain <= 0 selects the scheduler's default grain. ForRange returns when
// all chunks have completed.
//
// The call publishes one task descriptor to the scheduler's pool, wakes up
// to min(p, blocks)-1 parked workers, and claims chunks itself until the
// claim counter is exhausted — so it completes even if every pool worker is
// busy elsewhere, which is what makes nested ForRange calls on one
// scheduler deadlock-free.
func (s *Scheduler) ForRange(n, grain int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	p := s.workers
	grain = s.grainOf(n, grain, p)
	blocks := (n + grain - 1) / grain
	if p == 1 || blocks == 1 {
		body(0, n)
		return
	}
	if p > blocks {
		p = blocks
	}
	t := &task{blocks: int64(blocks), n: n, grain: grain, body: body}
	s.runTask(t, p-1)
}

// runTask is the single publish/participate/join protocol behind ForRange
// and Do. Ordering is load-bearing: the join counter is armed before
// the task becomes visible to workers; the submitter claims blocks until
// the counter is exhausted (guaranteeing completion with zero helpers);
// retire strictly precedes the join so no worker can pick the task up
// after the submitter returns.
//
// The cleanup is deferred so that a body panicking on the submitting
// goroutine — which, unlike a panic on a pool worker, is recoverable by
// the caller (gbbs/serve recovers build panics into request errors) —
// cannot strand a published task in the shared pool for a later loop's
// workers to pick up. The deferred path claims any still-unstarted blocks
// itself without executing them (balancing the join counter), unpublishes
// the task, and waits out blocks already running on workers before the
// panic continues unwinding.
func (s *Scheduler) runTask(t *task, helpers int) {
	t.wg.Add(int(t.blocks))
	s.pool.submit(t, helpers)
	defer func() {
		for {
			b := t.next.Add(1) - 1
			if b >= t.blocks {
				break
			}
			t.wg.Done() // cancel a block no one started
		}
		s.pool.retire(t)
		t.wg.Wait()
	}()
	t.run()
}

// For runs body(i) for each i in [0, n) in parallel. The per-element closure
// call costs a few nanoseconds; hot loops should prefer ForRange and iterate
// inside the block.
func (s *Scheduler) For(n, grain int, body func(i int)) {
	s.ForRange(n, grain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			body(i)
		}
	})
}

// Do runs f and g in parallel (binary fork-join) and returns when both have
// completed. With one worker it runs them sequentially.
//
// The fork is published as a two-block task: the caller claims f, a pool
// worker may claim g, and if none does by the time f finishes the caller
// reclaims g inline — lazy forking, so deep Do recursions (parallel sort)
// degrade to sequential calls when all workers are busy. The join is the
// task's atomic counter; no goroutine is spawned and no channel allocated.
func (s *Scheduler) Do(f, g func()) {
	if s.workers == 1 {
		f()
		g()
		return
	}
	pair := [2]func(){f, g}
	s.runTask(&task{blocks: 2, funcs: pair[:]}, 1)
}

// Blocks returns the block boundaries for n items with the given grain: a
// slice of block start offsets plus the terminal n. It lets two-pass
// algorithms (count then scatter) agree on the partition. On a one-worker
// scheduler it is always the single block [0, n), whatever the grain — the
// same rule ForRange follows — so a caller's one-block branch is its
// one-worker path.
func (s *Scheduler) Blocks(n, grain int) []int {
	if n <= 0 {
		return []int{0}
	}
	if s.workers == 1 {
		return []int{0, n}
	}
	grain = s.grainOf(n, grain, s.workers)
	nb := (n + grain - 1) / grain
	out := make([]int, nb+1)
	for b := 0; b < nb; b++ {
		out[b] = b * grain
	}
	out[nb] = n
	return out
}

// ForBlocks runs body once per block of the partition returned by Blocks,
// passing the block index and its [lo, hi) range.
func (s *Scheduler) ForBlocks(bounds []int, body func(b, lo, hi int)) {
	nb := len(bounds) - 1
	s.For(nb, 1, func(b int) {
		body(b, bounds[b], bounds[b+1])
	})
}
