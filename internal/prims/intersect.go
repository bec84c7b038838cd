package prims

// IntersectCount returns |a ∩ b| for sorted, duplicate-free slices. It is
// the sequential intersection the paper uses inside triangle counting's
// outer parallel loop ("we intersect directed adjacency lists sequentially,
// as there was sufficient parallelism in the outer parallel-loop"). For very
// skewed sizes it gallops through the larger list, giving
// O(|a| log(1 + |b|/|a|)) work like the paper's compressed intersection.
func IntersectCount(a, b []uint32) int {
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(a) == 0 {
		return 0
	}
	// Galloping pays off when b is much larger than a.
	if len(b) >= 32*len(a) {
		return gallopCount(a, b)
	}
	count, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		av, bv := a[i], b[j]
		switch {
		case av == bv:
			count++
			i++
			j++
		case av < bv:
			i++
		default:
			j++
		}
	}
	return count
}

func gallopCount(a, b []uint32) int {
	count := 0
	lo := 0
	for _, v := range a {
		// Exponential search for v in b[lo:].
		step := 1
		hi := lo
		for hi < len(b) && b[hi] < v {
			lo = hi + 1
			hi += step
			step <<= 1
		}
		if hi > len(b) {
			hi = len(b)
		}
		// Binary search in (lo-?, hi]. lo currently > last position < v.
		l, r := lo, hi
		for l < r {
			m := (l + r) / 2
			if b[m] < v {
				l = m + 1
			} else {
				r = m
			}
		}
		if l < len(b) && b[l] == v {
			count++
			lo = l + 1
		} else {
			lo = l
		}
		if lo >= len(b) {
			break
		}
	}
	return count
}
