package prims

import "repro/internal/parallel"

// pack is the count→scan→write skeleton behind every pack-shaped primitive.
// count(lo, hi) returns how many elements of block [lo, hi) survive; once
// every block is counted, alloc(total) sizes the output and write(lo, hi, o)
// writes block [lo, hi)'s survivors from output offset o on. With a nil
// write, pack stops after counting. The callbacks run once per block, so
// each element costs one call of the caller's predicate per pass. A single
// block counts, allocates and writes straight through with no per-block
// offsets. pack returns the survivor count. The write loops below copy the
// output slice, which they share with alloc, into a local before looping,
// so the loop does not reload it through the closure.
func pack(s *parallel.Scheduler, n int, count func(lo, hi int) int, alloc func(total int), write func(lo, hi, o int)) int {
	if n == 0 {
		return 0
	}
	bounds := s.Blocks(n, 0)
	nb := len(bounds) - 1
	if nb == 1 {
		total := count(0, n)
		if write != nil {
			alloc(total)
			write(0, n, 0)
		}
		return total
	}
	offs := make([]int, nb)
	s.ForBlocks(bounds, func(b, lo, hi int) { offs[b] = count(lo, hi) })
	total := ScanInPlace(s, offs)
	if write != nil {
		alloc(total)
		s.ForBlocks(bounds, func(b, lo, hi int) { write(lo, hi, offs[b]) })
	}
	return total
}

// countIndex is the count pass of the packs over an index predicate.
func countIndex(pred func(i int) bool) func(lo, hi int) int {
	return func(lo, hi int) int {
		c := 0
		for i := lo; i < hi; i++ {
			if pred(i) {
				c++
			}
		}
		return c
	}
}

// Filter returns the elements of a satisfying pred, preserving order, in O(n)
// work and O(log n) depth (per-block count, scan, per-block copy).
func Filter[T any](s *parallel.Scheduler, a []T, pred func(T) bool) []T {
	return filter(s, a, pred, func(total int) []T { return make([]T, total) })
}

// FilterInto is Filter writing into out (which must be large enough); it
// returns the number of kept elements. out must not alias a.
func FilterInto[T any](s *parallel.Scheduler, a []T, out []T, pred func(T) bool) int {
	return len(filter(s, a, pred, func(int) []T { return out }))
}

// filter packs the elements of a satisfying pred into the slice alloc
// returns for their count, and returns the filled prefix of that slice.
func filter[T any](s *parallel.Scheduler, a []T, pred func(T) bool, alloc func(total int) []T) []T {
	var out []T
	total := pack(s, len(a),
		func(lo, hi int) int {
			c := 0
			for _, v := range a[lo:hi] {
				if pred(v) {
					c++
				}
			}
			return c
		},
		func(total int) { out = alloc(total) },
		func(lo, hi, o int) {
			dst := out
			for _, v := range a[lo:hi] {
				if pred(v) {
					dst[o] = v
					o++
				}
			}
		})
	return out[:total]
}

// PackIndex returns, in increasing order, the indices i in [0, n) for which
// pred(i) is true. It is the paper's pack over an implicit boolean sequence
// (used to turn dense frontiers back into sparse ones).
func PackIndex(s *parallel.Scheduler, n int, pred func(i int) bool) []uint32 {
	var out []uint32
	pack(s, n, countIndex(pred),
		func(total int) { out = make([]uint32, total) },
		func(lo, hi, o int) {
			dst := out
			for i := lo; i < hi; i++ {
				if pred(i) {
					dst[o] = uint32(i)
					o++
				}
			}
		})
	return out
}

// MapFilter produces f(i) for each i in [0, n) where keep(i) is true, in
// index order. It fuses a map with a pack so callers avoid materializing the
// dense intermediate.
func MapFilter[T any](s *parallel.Scheduler, n int, keep func(i int) bool, f func(i int) T) []T {
	var out []T
	pack(s, n, countIndex(keep),
		func(total int) { out = make([]T, total) },
		func(lo, hi, o int) {
			dst := out
			for i := lo; i < hi; i++ {
				if keep(i) {
					dst[o] = f(i)
					o++
				}
			}
		})
	return out
}

// Count returns the number of indices i in [0, n) for which pred(i) is true.
func Count(s *parallel.Scheduler, n int, pred func(i int) bool) int {
	return pack(s, n, countIndex(pred), nil, nil)
}
