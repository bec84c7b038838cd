package gbbs

import (
	"context"
	"testing"
)

func TestPartitionOwners(t *testing.T) {
	const n = 1000
	for _, k := range []int{1, 2, 3, 8} {
		p := Partition{Shards: k, By: ByHash}
		if err := p.Validate(); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		owner := p.Owners(n)
		if len(owner) != n {
			t.Fatalf("k=%d: %d owners", k, len(owner))
		}
		seen := make([]int, k)
		for v, o := range owner {
			if int(o) >= k {
				t.Fatalf("k=%d: vertex %d owned by out-of-range shard %d", k, v, o)
			}
			seen[o]++
		}
		if k == 1 && seen[0] != n {
			t.Fatalf("single shard must own everything")
		}
		// Deterministic: same inputs, same assignment.
		again := p.Owners(n)
		for v := range owner {
			if owner[v] != again[v] {
				t.Fatalf("k=%d: owner of %d not deterministic", k, v)
			}
		}
	}
	for _, bad := range []Partition{{Shards: 0, By: ByHash}, {Shards: 257, By: ByHash}, {Shards: 2, By: "range"}, {Shards: 2}} {
		if bad.Validate() == nil {
			t.Errorf("Validate(%+v) accepted, want error", bad)
		}
	}
}

// SplitCSR hands out out-only CSRs (no transpose): every shard of a directed
// graph, and every cut graph. Engine.Run refuses them with an error instead
// of letting the dense edgeMap or SCC's backward search crash the process
// on the missing in-direction.
func TestRunRefusesOutOnlyGraphs(t *testing.T) {
	eng := New(WithThreads(2))
	defer eng.Close()
	ctx := context.Background()
	split := func(k int, transforms ...Transform) (subs, cuts []*CSR) {
		g, err := eng.Build(ctx, RMAT(10, 8, 1), transforms...)
		if err != nil {
			t.Fatal(err)
		}
		csr := g.(*CSR)
		subs, cuts, err = eng.SplitCSR(ctx, csr, Partition{Shards: k, By: ByHash}.Owners(csr.N()), k)
		if err != nil {
			t.Fatal(err)
		}
		return subs, cuts
	}
	shards, _ := split(1)
	_, cuts := split(2, Symmetrize())
	for _, tc := range []struct {
		algo, what string
		g          Graph
	}{
		{"bfs", "directed shard", shards[0]},
		{"scc", "directed shard", shards[0]},
		{"bfs", "cut graph", cuts[0]},
	} {
		if _, err := eng.Run(ctx, tc.algo, Request{Graph: tc.g}); err == nil {
			t.Errorf("%s on a %s: ran, want an error for the missing transpose", tc.algo, tc.what)
		}
	}
}
