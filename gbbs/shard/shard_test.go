package shard

import (
	"context"
	"runtime"
	"testing"

	"repro/gbbs"
)

// buildSym materializes a symmetric R-MAT graph at the given scale on a
// throwaway engine.
func buildSym(t testing.TB, scale int) *gbbs.CSR {
	t.Helper()
	eng := gbbs.New()
	defer eng.Close()
	g, err := eng.Build(context.Background(), gbbs.RMAT(scale, 16, 1), gbbs.Symmetrize())
	if err != nil {
		t.Fatalf("build rmat:%d: %v", scale, err)
	}
	return g.(*gbbs.CSR)
}

// singleRun executes name on a fresh single engine over g.
func singleRun(t testing.TB, g *gbbs.CSR, name string, req gbbs.Request) gbbs.Result {
	t.Helper()
	eng := gbbs.New()
	defer eng.Close()
	req.Graph = g
	res, err := eng.Run(context.Background(), name, req)
	if err != nil {
		t.Fatalf("single-engine %s: %v", name, err)
	}
	return res
}

// coord builds a hash-partitioned coordinator over g with the given shard
// count and per-shard thread budget.
func coord(t testing.TB, g *gbbs.CSR, k int, threads int) *Coordinator {
	t.Helper()
	eng := gbbs.New()
	defer eng.Close()
	co, err := NewCoordinator(context.Background(), eng, g, gbbs.Partition{Shards: k, By: gbbs.ByHash}, WithShardThreads(threads))
	if err != nil {
		t.Fatalf("NewCoordinator(k=%d): %v", k, err)
	}
	return co
}

func equalU32(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestShardedDeterminismGrid is the benchmark probe's correctness check: at
// 1/2/4/8 shards and 1/4/NumCPU threads per shard, merged cc and incrcc
// labels are byte-identical to the single-engine canonical incrcc run.
func TestShardedDeterminismGrid(t *testing.T) {
	g := buildSym(t, 12)
	ctx := context.Background()
	want := singleRun(t, g, "incrcc", gbbs.Request{})
	for _, k := range []int{1, 2, 4, 8} {
		for _, threads := range []int{1, 4, runtime.NumCPU()} {
			co := coord(t, g, k, threads)
			for _, name := range []string{"incrcc", "cc"} {
				res, rep, err := co.Run(ctx, name, gbbs.Request{})
				if err != nil {
					t.Fatalf("k=%d/threads=%d %s: %v", k, threads, name, err)
				}
				// cc merges to the canonical labelling: summary identical to
				// the single-engine cc run, labels identical to incrcc's.
				if res.Summary != want.Summary || !equalU32(res.Value.([]uint32), want.Value.([]uint32)) {
					t.Fatalf("k=%d/threads=%d: sharded %s diverged: %q vs %q", k, threads, name, res.Summary, want.Summary)
				}
				if rep.MergeElapsed <= 0 {
					t.Fatalf("k=%d/threads=%d %s: merge elapsed not recorded", k, threads, name)
				}
			}
			co.Close()
		}
	}
}

// TestAcceptanceRMAT16Connectivity: on an rmat:16 symmetric graph, merged
// component labels at K in {2,4,8} are exactly equal to the single-engine
// run.
func TestAcceptanceRMAT16Connectivity(t *testing.T) {
	if testing.Short() {
		t.Skip("rmat:16 build in -short mode")
	}
	g := buildSym(t, 16)
	want := singleRun(t, g, "incrcc", gbbs.Request{})
	for _, k := range []int{2, 4, 8} {
		co := coord(t, g, k, 0)
		res, _, err := co.Run(context.Background(), "incrcc", gbbs.Request{})
		co.Close()
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if res.Summary != want.Summary || !equalU32(res.Value.([]uint32), want.Value.([]uint32)) {
			t.Fatalf("k=%d: merged labels differ from single-engine run", k)
		}
	}
}

// TestRunRejections covers the coordinator's input validation.
func TestRunRejections(t *testing.T) {
	g := buildSym(t, 10)
	co := coord(t, g, 2, 1)
	defer co.Close()
	ctx := context.Background()
	if _, _, err := co.Run(ctx, "nosuch", gbbs.Request{}); err == nil {
		t.Error("unknown algorithm accepted")
	}
	if _, _, err := co.Run(ctx, "bfs", gbbs.Request{}); err == nil {
		t.Error("non-mergeable algorithm accepted")
	}
	if _, _, err := co.Run(ctx, "cc", gbbs.Request{Opts: map[string]any{"nope": 1}}); err == nil {
		t.Error("invalid opts accepted")
	}
	eng := gbbs.New(gbbs.WithThreads(1))
	defer eng.Close()
	if _, err := NewCoordinator(ctx, eng, g, gbbs.Partition{Shards: 0, By: gbbs.ByHash}); err == nil {
		t.Error("invalid partition accepted")
	}
}

// TestRunHonorsCancellation: a cancelled context aborts a sharded run with
// the context error.
func TestRunHonorsCancellation(t *testing.T) {
	g := buildSym(t, 11)
	co := coord(t, g, 2, 1)
	defer co.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := co.Run(ctx, "incrcc", gbbs.Request{}); err == nil {
		t.Fatal("cancelled run succeeded")
	}
}
