package gbbs

import (
	"context"
	"runtime"

	"repro/internal/parallel"
)

// Engine is an isolated execution scope for the benchmark's algorithms: it
// owns a private scheduler (a persistent worker pool plus a worker count and
// grain) and a default seed. Engines are cheap to create and safe for
// concurrent use, and two engines never share parallelism state — a server
// can run one engine per tenant or per request class, each with its own
// thread budget.
//
// The engine's worker pool starts lazily on the first parallel operation and
// is reused across calls: algorithm rounds, builds and repeated Run
// invocations wake parked resident workers instead of spawning goroutines.
// Close releases the pool; an engine that is never closed auto-parks — its
// idle workers exit on their own after a short idle timeout, so dropping an
// engine without Close leaks nothing.
//
// Algorithms run only through Run, which dispatches a registered algorithm
// by name (see Algorithms for the list and Result.Value for each output's
// type). Run, Build and the update methods take a context.Context, checked
// between algorithm rounds and build phases; once it is cancelled or past
// its deadline the call returns ctx.Err() promptly with a zero result.
// Passing context.Background() (or nil) disables cancellation checks
// entirely.
type Engine struct {
	sched *parallel.Scheduler
	seed  uint64
}

// Close releases the engine's worker pool: parked workers exit immediately
// and busy ones finish their current task first. Close is idempotent and
// non-blocking. The engine stays usable afterwards — parallel operations
// simply run sequentially on the calling goroutine — so a racing in-flight
// request completes correctly, just without parallel speedup. Close is
// optional: an idle engine's workers park and then exit on their own.
func (e *Engine) Close() { e.sched.Close() }

// Option configures an Engine under construction; see WithThreads, WithSeed
// and WithGrain.
type Option func(*engineConfig)

type engineConfig struct {
	threads int
	grain   int
	seed    uint64
}

// WithThreads sets the number of worker goroutines the engine's scheduler
// uses. p < 1 selects 1 (fully sequential, zero scheduling overhead — how
// the paper's single-thread columns are measured). The default is
// runtime.NumCPU().
func WithThreads(p int) Option { return func(c *engineConfig) { c.threads = p } }

// WithSeed sets the seed the engine's randomized algorithms (cc, mis, scc,
// ...) use when a request leaves Request.Seed nil. For a fixed seed every
// algorithm is deterministic, independent of the thread count. The default
// is DefaultSeed (1).
func WithSeed(seed uint64) Option { return func(c *engineConfig) { c.seed = seed } }

// WithGrain fixes the scheduler's default grain (elements per scheduled
// block) for parallel loops that do not specify one. g <= 0 keeps the
// automatic heuristic (the default), which targets 8 blocks per worker with
// a 512-element floor.
func WithGrain(g int) Option { return func(c *engineConfig) { c.grain = g } }

// New creates an Engine from the given options:
//
//	eng := gbbs.New(gbbs.WithThreads(8), gbbs.WithSeed(42))
func New(opts ...Option) *Engine {
	c := engineConfig{threads: runtime.NumCPU(), seed: DefaultSeed}
	for _, o := range opts {
		o(&c)
	}
	return &Engine{sched: parallel.NewWithGrain(c.threads, c.grain), seed: c.seed}
}

// Threads reports the engine's worker count.
func (e *Engine) Threads() int { return e.sched.Workers() }

// Seed reports the engine's default seed.
func (e *Engine) Seed() uint64 { return e.seed }

// exec runs f on a per-call scheduler scoped to ctx, translating the
// scheduler's cancellation unwind back into ctx.Err().
func (e *Engine) exec(ctx context.Context, f func(s *parallel.Scheduler)) (err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err = ctx.Err(); err != nil {
		return err
	}
	s := e.sched.Attach(ctx)
	defer parallel.RecoverStop(&err)
	f(s)
	return nil
}

// Exec runs f on the engine's scheduler under ctx, giving external
// subsystems (the shard coordinator, custom drivers) the same engine-scoped
// parallelism the built-in algorithms use: f's Builder parallelizes on this
// engine's thread budget, observes ctx through Builder.Poll and the parallel
// loops, and a cancellation unwinds back into the returned ctx.Err().
func (e *Engine) Exec(ctx context.Context, f func(b *Builder)) error {
	return e.exec(ctx, func(s *parallel.Scheduler) { f(&Builder{s: s}) })
}
