// Package prims implements the work-efficient parallel primitives of the
// paper's §3 (scan, reduce, filter/pack, histogram) plus the sorting,
// selection and permutation routines the algorithm implementations rely on.
// Every primitive has O(n) work (O(n) per radix pass for sorting) and low
// depth, and takes the scheduler it should run on as its first argument.
//
// The blocked primitives share one shape: the scheduler's Blocks partitions
// the input, a per-block pass runs in parallel, and a short sequential step
// combines the per-block results. The pack-shaped ones (Filter, FilterInto,
// PackIndex, MapFilter, Count) are one count→scan→write skeleton, Reduce and
// MapReduce one block-reduce skeleton, and both radix sorts one counting
// pass. The pack and reduce skeletons take the caller's per-block loop, so
// an element costs one call of the caller's function, not a wrapper's too.
// Blocks returns a single block on a one-worker scheduler, as it does for
// input below one grain, and each primitive's single-block branch is a
// plain sequential loop with no per-block partials: that branch is the
// one-worker path.
package prims

import "repro/internal/parallel"

// Number covers the arithmetic element types primitives operate on.
type Number interface {
	~int | ~int8 | ~int16 | ~int32 | ~int64 |
		~uint | ~uint8 | ~uint16 | ~uint32 | ~uint64 | ~uintptr |
		~float32 | ~float64
}

// Scan writes the exclusive prefix sums of a into out (out[i] = a[0] + ... +
// a[i-1], out[0] = 0) and returns the total sum. out must have len(a)
// elements and may alias a. Runs in O(n) work and O(log n) depth: per-block
// sums, a sequential scan over the (few) block sums, then per-block rewrite.
func Scan[T Number](s *parallel.Scheduler, a, out []T) T {
	n := len(a)
	if n == 0 {
		return 0
	}
	bounds := s.Blocks(n, 0)
	nb := len(bounds) - 1
	if nb == 1 {
		return scanSeq(a, out, 0)
	}
	sums := make([]T, nb)
	s.ForBlocks(bounds, func(b, lo, hi int) {
		var s T
		for i := lo; i < hi; i++ {
			s += a[i]
		}
		sums[b] = s
	})
	total := scanSeq(sums, sums, 0)
	s.ForBlocks(bounds, func(b, lo, hi int) {
		scanSeq(a[lo:hi], out[lo:hi], sums[b])
	})
	return total
}

func scanSeq[T Number](a, out []T, carry T) T {
	s := carry
	for i, v := range a {
		out[i] = s
		s += v
	}
	return s
}

// ScanInPlace replaces a with its exclusive prefix sums and returns the total.
func ScanInPlace[T Number](s *parallel.Scheduler, a []T) T { return Scan(s, a, a) }
