// Package shard runs connectivity over a hash-partitioned graph by
// scatter-gather: a Coordinator splits one CSR into K per-shard subgraphs,
// labels each shard's internal subgraph with union-find on its own
// gbbs.Engine, and merges the labellings by uniting the boundary edges.
//
// It remains only as the benchmark's shard.cc_k2 probe. Sharding was
// measured against one engine running the same union-find and lost before
// the split was even counted, so no product path shards (ARCHITECTURE.md,
// "Sharding").
package shard

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/gbbs"
)

// Coordinator runs connectivity over a partitioned graph. It owns one
// gbbs.Engine per shard (each with a private scheduler and thread budget), a
// K-wide control engine that launches the shard-local phases in parallel,
// and a merge engine for the gather step. Run may be called concurrently;
// Close releases the engines.
type Coordinator struct {
	owner    []uint32
	subs     []*gbbs.CSR
	boundary *gbbs.UpdateBatch // every boundary edge, once per stored direction
	engines  []*gbbs.Engine
	// control fans the K shard-local phases out with grain 1 (the default
	// grain heuristic would serialize a K-wide loop); merge runs the
	// data-parallel gather step on the full thread budget.
	control *gbbs.Engine
	merge   *gbbs.Engine
	seed    uint64
}

// Option configures a Coordinator under construction; see WithShardThreads
// and WithSeed.
type Option func(*coordConfig)

type coordConfig struct {
	shardThreads int
	seed         uint64
}

// WithShardThreads sets the worker count of every per-shard engine. The
// default divides runtime.NumCPU() evenly across shards (at least 1 per
// shard).
func WithShardThreads(p int) Option { return func(c *coordConfig) { c.shardThreads = p } }

// WithSeed sets the seed used when a request leaves Request.Seed nil,
// mirroring gbbs.WithSeed. The default is gbbs.DefaultSeed.
func WithSeed(seed uint64) Option { return func(c *coordConfig) { c.seed = seed } }

// NewCoordinator splits g under part on eng's scheduler and returns a
// Coordinator over the decomposition. eng is only used for the split; the
// coordinator creates and owns its shard, control and merge engines.
func NewCoordinator(ctx context.Context, eng *gbbs.Engine, g *gbbs.CSR, part gbbs.Partition, opts ...Option) (*Coordinator, error) {
	if err := part.Validate(); err != nil {
		return nil, err
	}
	k := part.Shards
	owner := part.Owners(g.N())
	subs, cuts, err := eng.SplitCSR(ctx, g, owner, k)
	if err != nil {
		return nil, err
	}
	m := 0
	for _, cut := range cuts {
		m += cut.M()
	}
	boundary := &gbbs.UpdateBatch{N: g.N(), U: make([]uint32, 0, m), V: make([]uint32, 0, m)}
	for v, o := range owner {
		for _, u := range cuts[o].OutNghSlice(uint32(v)) {
			boundary.U = append(boundary.U, uint32(v))
			boundary.V = append(boundary.V, u)
		}
	}
	c := coordConfig{seed: gbbs.DefaultSeed}
	for _, o := range opts {
		o(&c)
	}
	if c.shardThreads < 1 {
		c.shardThreads = max(1, runtime.NumCPU()/k)
	}
	co := &Coordinator{
		owner:    owner,
		subs:     subs,
		boundary: boundary,
		engines:  make([]*gbbs.Engine, k),
		control:  gbbs.New(gbbs.WithThreads(k), gbbs.WithGrain(1), gbbs.WithSeed(c.seed)),
		merge:    gbbs.New(gbbs.WithSeed(c.seed)),
		seed:     c.seed,
	}
	for i := range co.engines {
		co.engines[i] = gbbs.New(gbbs.WithThreads(c.shardThreads), gbbs.WithSeed(c.seed))
	}
	return co, nil
}

// Close releases every engine the coordinator owns. Like Engine.Close it is
// idempotent and non-blocking; in-flight runs finish correctly, just without
// parallel speedup.
func (c *Coordinator) Close() {
	for _, e := range c.engines {
		e.Close()
	}
	c.control.Close()
	c.merge.Close()
}

// Report describes how a sharded run executed.
type Report struct {
	// MergeElapsed is the wall-clock time of the gather/merge step.
	MergeElapsed time.Duration
}

// Run executes connectivity ("cc" or "incrcc") over the partitioned graph
// and returns the merged result plus an execution report. Each shard labels
// its internal subgraph with canonical union-find ("incrcc"); the merge
// stitches the per-shard labellings together and unites the boundary edges
// through the incremental-connectivity machinery. Union-find with monotone
// minimum hooking is insensitive to edge order, so the merged labelling is
// byte-identical to a single-engine "incrcc" run for either name — and, for
// "cc", partition-equivalent to the LDD labelling with the same summary.
// The request's graph fields are ignored; a nil Seed resolves to the
// coordinator's default, recorded in Result.Seed. The merge step — combining
// the shard labellings and uniting the boundary — is Report.MergeElapsed.
func (c *Coordinator) Run(ctx context.Context, name string, req gbbs.Request) (gbbs.Result, *Report, error) {
	a, ok := gbbs.Lookup(name)
	if !ok {
		return gbbs.Result{}, nil, fmt.Errorf("shard: unknown algorithm %q", name)
	}
	if name != "cc" && name != "incrcc" {
		return gbbs.Result{}, nil, fmt.Errorf("shard: algorithm %q has no sharded merge step (mergeable: cc, incrcc)", name)
	}
	if _, err := a.ResolveOpts(req.Opts); err != nil {
		return gbbs.Result{}, nil, err
	}
	seed := c.seed
	if req.Seed != nil {
		seed = *req.Seed
	}
	start := time.Now()
	results, err := c.scatter(ctx, seed)
	if err != nil {
		return gbbs.Result{}, nil, err
	}
	mergeStart := time.Now()
	labels := make([]uint32, len(c.owner))
	err = c.merge.Exec(ctx, func(b *gbbs.Builder) {
		shardLabels := make([][]uint32, len(results))
		for i, r := range results {
			shardLabels[i] = r.Value.([]uint32)
		}
		b.Parallel(len(labels), func(lo, hi int) {
			for v := lo; v < hi; v++ {
				labels[v] = shardLabels[c.owner[v]][v]
			}
		})
	})
	if err != nil {
		return gbbs.Result{}, nil, err
	}
	if labels, err = c.merge.IncrementalConnectivity(ctx, labels, []*gbbs.UpdateBatch{c.boundary}); err != nil {
		return gbbs.Result{}, nil, err
	}
	num, largest := componentSummary(labels)
	rep := &Report{MergeElapsed: time.Since(mergeStart)}
	return gbbs.Result{
		Summary: fmt.Sprintf("%d components, largest %d", num, largest),
		Value:   labels,
		Elapsed: time.Since(start),
		Seed:    seed,
	}, rep, nil
}

// scatter runs "incrcc" on every shard's internal subgraph in parallel,
// labelling each vertex with the minimum vertex of its shard-internal
// component, and returns the per-shard results in shard order.
func (c *Coordinator) scatter(ctx context.Context, seed uint64) ([]gbbs.Result, error) {
	k := len(c.engines)
	results := make([]gbbs.Result, k)
	errs := make([]error, k)
	err := c.control.Exec(ctx, func(b *gbbs.Builder) {
		b.Parallel(k, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				results[i], errs[i] = c.engines[i].Run(ctx, "incrcc", gbbs.Request{Graph: c.subs[i], Seed: &seed})
			}
		})
	})
	if err != nil {
		return nil, err
	}
	for i, e := range errs {
		if e != nil {
			return nil, fmt.Errorf("shard %d: %w", i, e)
		}
	}
	return results, nil
}

// componentSummary counts the components of a canonical (minimum-vertex)
// labelling and the size of the largest, matching core.ComponentCount.
func componentSummary(labels []uint32) (num int, largest int64) {
	counts := make([]int64, len(labels))
	for _, l := range labels {
		counts[l]++
	}
	for _, cnt := range counts {
		if cnt > 0 {
			num++
			largest = max(largest, cnt)
		}
	}
	return num, largest
}
