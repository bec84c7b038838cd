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
	// A branch-free merge: which list advances depends on data the branch
	// predictor cannot guess, so the comparison becomes arithmetic. lt and
	// gt are the sign bits of a[i]-b[j] and b[j]-a[i]; exactly one of
	// lt, gt and "equal" is 1.
	count, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		d := int64(a[i]) - int64(b[j])
		lt := int(uint64(d) >> 63)
		gt := int(uint64(-d) >> 63)
		count += 1 - lt - gt
		i += 1 - gt
		j += 1 - lt
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
