package gbbs

import "testing"

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
