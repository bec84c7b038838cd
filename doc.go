// Package repro is a from-scratch Go reproduction of "Theoretically
// Efficient Parallel Graph Algorithms Can Be Fast and Scalable" (Dhulipala,
// Blelloch, Shun; SPAA 2018) — the GBBS benchmark.
//
// # Public API
//
// The public API lives in the gbbs subpackage and is organized around
// engines: an Engine created with functional options owns an isolated
// work-stealing-style scheduler, so any number of engines can run
// concurrently in one process with different thread budgets — the
// foundation for serving many tenants or requests at once. Graph
// construction is engine-scoped too: a GraphSource (generator, edge list,
// or file reader) plus composable Transforms (Symmetrize, weight
// assignment, relabelling, parallel-byte compression) are materialized by
// Engine.Build on the engine's own scheduler, with the context checked
// between build phases. Every algorithm runs through one entry point,
// Engine.Run, which dispatches by name through a registry with uniform
// Request/Result types (gbbs.Register, gbbs.Algorithms, gbbs.Lookup); the
// context is checked between rounds, so a caller can cancel or deadline
// any build or run:
//
//	eng := gbbs.New(gbbs.WithThreads(8), gbbs.WithSeed(1))
//	g, err := eng.Build(ctx, gbbs.RMAT(18, 16, 1), gbbs.Symmetrize())
//	res, err := eng.Run(ctx, "bfs", gbbs.Request{Graph: g, Source: 0})
//	dist := res.Value.([]uint32)
//
// Requests may carry a declarative input (Request.Input, a source plus
// transforms) that the engine builds before dispatch. Every registered
// algorithm declares a typed parameter schema (gbbs.Algorithm.Params):
// Engine.Run validates request options against it — unknown names and
// out-of-range values are descriptive errors, not silent defaults — and a
// declarative request has a canonical fingerprint (gbbs.Request.Key)
// identifying its deterministic result. The CLI driver, the HTTP daemon
// and the benchmark all run algorithms this way, so a package that
// registers a new algorithm is immediately runnable from cmd/gbbs-run,
// listed by `gbbs-run -list`, described by `gbbs-run -describe`, and
// served by the HTTP daemon.
//
// There is no process-wide scheduler and no package-level algorithm
// function: every build and every run goes through an Engine, which is
// what keeps concurrent engines isolated.
//
// # Serving layer
//
// The repro/gbbs/serve subpackage and the cmd/gbbs-serve daemon expose the
// whole stack over HTTP: POST /v1/run executes one declarative request —
// source spec, transforms, algorithm name, thread budget, deadline, a
// single JSON object — on a per-request engine. Built graphs stay resident
// in a cache keyed by canonical spec (concurrent identical requests share
// one build; entries are evicted LRU by approximate byte size), completed
// runs stay resident in a deterministic result cache keyed by the request
// fingerprint (a repeated identical request is answered from memory
// without executing anything), and an admission limiter caps the total
// worker threads of concurrently running requests so one tenant cannot
// starve the rest.
//
// # Benchmark
//
// The repository's one measurement system is the benchmark/ module,
// declared by BENCHMARK.json: the paper's 15-problem suite at 1 and P
// threads on two graph regimes plus closed-loop serving workloads, with
// every answer verified and a per-layer breakdown (see benchmark/README.md).
// See ARCHITECTURE.md for the layer map, the scheduler-isolation
// invariant, the build-pipeline phases and the request lifecycle through
// the server, with file pointers into each layer.
package repro
