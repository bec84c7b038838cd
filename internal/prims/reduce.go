package prims

import "repro/internal/parallel"

// Reduce combines the elements of a with the associative function f starting
// from the identity id, in O(n) work and O(log n) depth. It is MapReduce
// over the slice, with the per-block loop reading a directly.
func Reduce[T any](s *parallel.Scheduler, a []T, id T, f func(T, T) T) T {
	return reduceBlocks(s, len(a), id, f, func(lo, hi int) T {
		acc := id
		for _, v := range a[lo:hi] {
			acc = f(acc, v)
		}
		return acc
	})
}

// Sum returns the sum of the elements of a.
func Sum[T Number](s *parallel.Scheduler, a []T) T {
	return Reduce(s, a, 0, func(x, y T) T { return x + y })
}

// MapReduce applies m to each index in [0, n) and reduces the results with f
// from identity id. It is the paper's map-reduce over an implicit sequence.
func MapReduce[T any](s *parallel.Scheduler, n int, id T, m func(i int) T, f func(T, T) T) T {
	return reduceBlocks(s, n, id, f, func(lo, hi int) T {
		acc := id
		for i := lo; i < hi; i++ {
			acc = f(acc, m(i))
		}
		return acc
	})
}

// reduceBlocks is the reduce skeleton: block(lo, hi) reduces [lo, hi) from
// id, then the per-block partials combine with f in block order. Like pack,
// it takes the caller's per-block loop, so an element costs only the
// caller's own calls. A single block reduces straight through with no
// partials.
func reduceBlocks[T any](s *parallel.Scheduler, n int, id T, f func(T, T) T, block func(lo, hi int) T) T {
	if n == 0 {
		return id
	}
	bounds := s.Blocks(n, 0)
	nb := len(bounds) - 1
	if nb == 1 {
		return block(0, n)
	}
	partial := make([]T, nb)
	s.ForBlocks(bounds, func(b, lo, hi int) { partial[b] = block(lo, hi) })
	acc := id
	for _, v := range partial {
		acc = f(acc, v)
	}
	return acc
}

// Max returns the maximum element of a; a must be non-empty.
func Max[T Number](s *parallel.Scheduler, a []T) T {
	return Reduce(s, a[1:], a[0], func(x, y T) T {
		if y > x {
			return y
		}
		return x
	})
}
