package prims

import "repro/internal/parallel"

// This file implements the paper's §5 "work-efficient histogram". The
// Histogram primitive takes a sequence of keys and computes, for each
// distinct key, the number of occurrences — the operation k-core peeling
// uses to count edges removed from each remaining vertex. The naive
// implementation fetch-and-adds a per-key counter and suffers heavy
// contention on high-degree vertices; the work-efficient version avoids
// contention by sorting keys in blocks (a radix partition) and reducing runs,
// touching each counter once. The contended fetch-and-add baseline is
// k-core's own variant (core.KCoreFetchAndAdd, registered as kcore-faa).

// Histogram returns the distinct keys of the input in sorted order together
// with their multiplicities, in O(n) work per radix pass and O(log n)
// contention-free depth. keyBits bounds the key width (use BitsFor(maxKey)).
func Histogram(s *parallel.Scheduler, keys []uint32, keyBits int) (ids []uint32, counts []uint32) {
	n := len(keys)
	if n == 0 {
		return nil, nil
	}
	sorted := make([]uint64, n)
	s.ForRange(n, 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			sorted[i] = uint64(keys[i])
		}
	})
	RadixSortU64(s, sorted, keyBits)
	// Boundaries of equal-key runs.
	starts := PackIndex(s, n, func(i int) bool {
		return i == 0 || sorted[i] != sorted[i-1]
	})
	k := len(starts)
	ids = make([]uint32, k)
	counts = make([]uint32, k)
	s.ForRange(k, 0, func(lo, hi int) {
		for j := lo; j < hi; j++ {
			start := int(starts[j])
			end := n
			if j+1 < k {
				end = int(starts[j+1])
			}
			ids[j] = uint32(sorted[start])
			counts[j] = uint32(end - start)
		}
	})
	return ids, counts
}
