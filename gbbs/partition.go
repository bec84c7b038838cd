package gbbs

import (
	"context"
	"fmt"

	"repro/internal/graph"
	"repro/internal/parallel"
)

// This file defines the partition spec — how a graph is split across shard
// engines — and the split itself. The scatter-gather coordinator that uses
// them lives in gbbs/shard, which remains only as the benchmark's
// connectivity probe: sharding is not part of any product path.

// ByHash is the one partition strategy, the accepted value of Partition.By:
// vertices are assigned to shards by a multiplicative hash of the vertex ID,
// which spreads the hubs of skewed graphs evenly across shards.
const ByHash = "hash"

// maxShards bounds Partition.Shards. Every shard runs in one process, so a
// shard count beyond the largest plausible core count is a spec error, not a
// scaling request.
const maxShards = 256

// Partition declares how a graph is split across shards: the shard count and
// the vertex-assignment strategy. The zero value is not valid; set both
// fields and call Validate.
type Partition struct {
	// Shards is the number of shards K, in [1, 256].
	Shards int
	// By selects the vertex-assignment strategy; ByHash is the only one.
	By string
}

// Validate checks that the partition is well-formed: Shards in [1, 256] and
// By == ByHash.
func (p Partition) Validate() error {
	if p.Shards < 1 || p.Shards > maxShards {
		return fmt.Errorf("gbbs: partition shards=%d out of range [1, %d]", p.Shards, maxShards)
	}
	if p.By != ByHash {
		return fmt.Errorf("gbbs: unknown partition strategy %q (known: %s)", p.By, ByHash)
	}
	return nil
}

// Owners returns the shard assignment of every vertex in [0, n) under the
// partition: Owners()[v] is the shard in [0, Shards) that owns vertex v. The
// assignment is a pure function of (n, Shards).
func (p Partition) Owners(n int) []uint32 {
	k := uint32(p.Shards)
	owner := make([]uint32, n)
	if k <= 1 {
		return owner
	}
	for v := range owner {
		owner[v] = hashOwner(uint32(v), k)
	}
	return owner
}

// SplitCSR partitions g into k per-shard subgraphs on the engine's
// scheduler: owner[v] names the shard owning vertex v, and for each shard i
// the returned subs[i] holds the internal edges (both endpoints owned by i)
// and cuts[i] the boundary edges from the owning side, all over the global
// vertex ID space. Rows keep g's adjacency order and every stored edge lands
// in exactly one returned graph.
func (e *Engine) SplitCSR(ctx context.Context, g *CSR, owner []uint32, k int) (subs, cuts []*CSR, err error) {
	if len(owner) != g.N() {
		return nil, nil, fmt.Errorf("gbbs: SplitCSR: owner has %d entries for %d vertices", len(owner), g.N())
	}
	err = e.exec(ctx, func(s *parallel.Scheduler) { subs, cuts = graph.SplitCSR(s, g, owner, k) })
	if err != nil {
		return nil, nil, err
	}
	return subs, cuts, nil
}

// hashOwner maps vertex v to a shard by a 32-bit Fibonacci-style mix, so
// consecutive IDs land on different shards.
func hashOwner(v, k uint32) uint32 {
	x := v * 0x9e3779b9
	x ^= x >> 16
	x *= 0x85ebca6b
	x ^= x >> 13
	return x % k
}
