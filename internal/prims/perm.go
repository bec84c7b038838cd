package prims

import (
	"repro/internal/parallel"
	"repro/internal/xrand"
)

// RandomPermutation returns a deterministic pseudo-random permutation of
// [0, n) for the given seed. It assigns each index a hashed 32-bit key and
// stably radix sorts the keys alone (index in the high word, key in the low,
// four passes): ties between equal keys keep index order, which only
// perturbs uniformity negligibly at graph scales. The paper's
// randomized algorithms (SCC batching, MIS/MM priorities) all start from such
// a permutation, and it notes that connectivity "always generates a random
// permutation, even on the first round".
func RandomPermutation(s *parallel.Scheduler, n int, seed uint64) []uint32 {
	if n <= 0 {
		return nil
	}
	packed := make([]uint64, n)
	s.ForRange(n, 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			packed[i] = uint64(i)<<32 | uint64(xrand.Hash32(seed, uint64(i)))
		}
	})
	RadixSortU64(s, packed, 32)
	perm := make([]uint32, n)
	s.ForRange(n, 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			perm[i] = uint32(packed[i] >> 32)
		}
	})
	return perm
}

// InversePermutation returns inv with inv[perm[i]] = i.
func InversePermutation(s *parallel.Scheduler, perm []uint32) []uint32 {
	inv := make([]uint32, len(perm))
	s.ForRange(len(perm), 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			inv[perm[i]] = uint32(i)
		}
	})
	return inv
}
