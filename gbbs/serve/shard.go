package serve

import (
	"context"
	"fmt"
	"net/http"

	"repro/gbbs"
	"repro/gbbs/shard"
)

// This file wires the gbbs/shard coordinator into the serving layer: a
// RunRequest (or stored graph) may carry a partition spec ("shards":
// "4,by=hash"), and mergeable algorithms then execute by scatter-gather
// across per-shard engines instead of on one engine. Decompositions are
// expensive to build (a full split of the graph plus K engines), so the
// server keeps them in a small LRU of coordinators keyed by graph identity
// plus canonical partition — the same identity Request.Key folds into the
// result-cache fingerprint, so a sharded result can never be served for an
// unsharded request or across shard counts.

// maxShardCoordinators bounds the resident coordinators. Each holds a full
// decomposition of its graph (roughly the graph's size again) plus K+2
// engines, so the bound is deliberately small; evicted coordinators are
// rebuilt on demand.
const maxShardCoordinators = 8

// shardKey is the cache identity of a coordinator: the graph's canonical
// identity (spec cache key, or snapshot ID for store-backed graphs) plus the
// canonical partition.
func shardKey(graphKey string, part gbbs.Partition) string {
	return graphKey + "|" + part.String()
}

// shardKeyPrefix is the prefix every coordinator key of the graph identified
// by graphKey carries, and no other graph's does: canonical partitions all
// start "shards=", and "|shards=" cannot continue a spec key into a longer
// one because no transform is named shards.
func shardKeyPrefix(graphKey string) string {
	return graphKey + "|shards="
}

// newShardCache returns the coordinator cache: the flight instantiation in
// which every coordinator costs 1 against a budget of maxShardCoordinators,
// a coordinator leaving the cache is closed, and a split runs on the calling
// goroutine under the request's context (it is a small multiple of one graph
// pass, unlike the minutes-long builds the graph cache detaches).
func newShardCache() *flight[*shard.Coordinator] {
	return newFlight(maxShardCoordinators,
		func(*shard.Coordinator) int64 { return 1 },
		(*shard.Coordinator).Close, nil)
}

// ShardCoordinatorInfo describes one resident shard coordinator for
// /healthz: its cache identity, partition and per-shard decomposition stats
// (ownership, edge split, approximate bytes), so partition skew is visible
// to operators.
type ShardCoordinatorInfo struct {
	// Key is the coordinator's cache identity: graph identity plus canonical
	// partition.
	Key string `json:"key"`
	// Partition is the canonical partition spec ("shards=4,by=hash").
	Partition string `json:"partition"`
	// Shards holds per-shard decomposition statistics, in shard order.
	Shards []shard.ShardStat `json:"shards"`
}

// shardStats describes every completed resident coordinator, most recently
// used first.
func (s *Server) shardStats() []ShardCoordinatorInfo {
	_, entries := s.shards.snapshot()
	out := make([]ShardCoordinatorInfo, 0, len(entries))
	for _, e := range entries {
		if !e.running {
			out = append(out, ShardCoordinatorInfo{Key: e.key, Partition: e.val.Partition().String(), Shards: e.val.Stats()})
		}
	}
	return out
}

// parseShards validates a request's partition spec against the server's
// sharding configuration and the algorithm's mergeability. An empty spec
// returns (nil, nil).
func (s *Server) parseShards(spec, algorithm string) (*gbbs.Partition, *requestError) {
	if spec == "" {
		return nil, nil
	}
	if s.cfg.MaxShards <= 0 {
		return nil, &requestError{status: http.StatusBadRequest, msg: "sharded execution is disabled on this server (start gbbs-serve with -shards)"}
	}
	part, err := gbbs.ParsePartition(spec)
	if err != nil {
		return nil, &requestError{status: http.StatusBadRequest, msg: fmt.Sprintf("bad shards spec: %v", err)}
	}
	if part.Shards > s.cfg.MaxShards {
		return nil, &requestError{status: http.StatusBadRequest, msg: fmt.Sprintf("shards=%d exceeds the server's cap of %d", part.Shards, s.cfg.MaxShards)}
	}
	if algorithm != "" && !shard.Mergeable(algorithm) {
		return nil, &requestError{status: http.StatusBadRequest, msg: fmt.Sprintf("algorithm %q has no sharded merge step (mergeable: %v)", algorithm, shard.MergeableAlgorithms())}
	}
	return &part, nil
}

// shardDefault returns the default partition recorded for a stored graph at
// creation time (PUT /v1/graphs/{name} with "shards"), if any.
func (s *Server) shardDefault(name string) (gbbs.Partition, bool) {
	s.shardDefaultsMu.Lock()
	defer s.shardDefaultsMu.Unlock()
	p, ok := s.shardDefaults[name]
	return p, ok
}

// setShardDefault records (or clears, for remember=false) a stored graph's
// default partition.
func (s *Server) setShardDefault(name string, p gbbs.Partition, remember bool) {
	s.shardDefaultsMu.Lock()
	defer s.shardDefaultsMu.Unlock()
	if remember {
		s.shardDefaults[name] = p
	} else {
		delete(s.shardDefaults, name)
	}
}

// coordinatorFor returns the coordinator executing p's sharded run: the
// resident one under the request's (graph, partition) identity, or a fresh
// split of g. The per-shard engines divide the request's admitted thread
// budget; a cached coordinator keeps the budget of the request that built
// it (results are thread-count independent, only latency varies).
func (s *Server) coordinatorFor(ctx context.Context, p *parsedRun, eng *gbbs.Engine, g gbbs.Graph) (*shard.Coordinator, bool, error) {
	key := shardKey(p.key, *p.part)
	return s.shards.do(ctx, key, func(ctx context.Context) (*shard.Coordinator, error) {
		csr, err := eng.Compact(ctx, g)
		if err != nil {
			return nil, fmt.Errorf("sharded execution needs an uncompressed graph: %w", err)
		}
		perShard := p.threads / p.part.Shards
		if perShard < 1 {
			perShard = 1
		}
		return shard.NewCoordinator(ctx, eng, csr, *p.part,
			shard.WithShardThreads(perShard), shard.WithSeed(p.seed))
	})
}
