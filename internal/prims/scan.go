// Package prims implements the work-efficient parallel primitives of the
// paper's §3 (scan, reduce, filter, pack) plus the sorting, histogramming,
// selection and permutation routines the algorithm implementations rely on.
// Every primitive has O(n) (or O(n log n) for sorting) work and low depth.
// Primitives are scheduler-scoped: each takes the scheduler it should run
// on as its first argument and degrades to a plain sequential loop on a
// one-worker scheduler.
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
	var total T
	for b := 0; b < nb; b++ {
		s := sums[b]
		sums[b] = total
		total += s
	}
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

// ScanInclusive writes inclusive prefix sums into out and returns the total.
// Like Scan, a single-block input (sub-grain n or a one-worker scheduler)
// takes a plain sequential pass with no block machinery.
func ScanInclusive[T Number](s *parallel.Scheduler, a, out []T) T {
	n := len(a)
	if n == 0 {
		return 0
	}
	bounds := s.Blocks(n, 0)
	nb := len(bounds) - 1
	if nb == 1 {
		return scanInclSeq(a, out, 0)
	}
	sums := make([]T, nb)
	s.ForBlocks(bounds, func(b, lo, hi int) {
		var s T
		for i := lo; i < hi; i++ {
			s += a[i]
		}
		sums[b] = s
	})
	var total T
	for b := 0; b < nb; b++ {
		s := sums[b]
		sums[b] = total
		total += s
	}
	s.ForBlocks(bounds, func(b, lo, hi int) {
		scanInclSeq(a[lo:hi], out[lo:hi], sums[b])
	})
	return total
}

func scanInclSeq[T Number](a, out []T, carry T) T {
	s := carry
	for i, v := range a {
		s += v
		out[i] = s
	}
	return s
}

// ScanInPlace replaces a with its exclusive prefix sums and returns the total.
func ScanInPlace[T Number](s *parallel.Scheduler, a []T) T { return Scan(s, a, a) }
