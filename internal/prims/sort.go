package prims

import (
	"math/bits"

	"repro/internal/parallel"
)

// The radix sorts below are parallel LSD counting sorts with 8-bit digits,
// modeled on the PBBS radix sort the paper's histogram builds on: each pass
// counts digit occurrences per block, computes per-(digit, block) offsets
// with a scan in digit-major order (which makes the pass stable), and
// scatters. Sorting k bits costs ceil(k/8) passes of O(n) work each.

const radixBits = 8
const radixBuckets = 1 << radixBits

// RadixSortU64 sorts a in place by its low `bitsWanted` bits (pass 64 for a
// full sort). Stable across passes, deterministic, parallel.
func RadixSortU64(s *parallel.Scheduler, a []uint64, bitsWanted int) {
	radixSort(s, a, nil, bitsWanted)
}

// RadixSortPairs sorts keys (by low bitsWanted bits) and applies the same
// permutation to vals. Stable.
func RadixSortPairs(s *parallel.Scheduler, keys []uint64, vals []uint32, bitsWanted int) {
	if len(keys) != len(vals) {
		panic("prims: RadixSortPairs length mismatch")
	}
	radixSort(s, keys, vals, bitsWanted)
}

// radixSort is both sorts: it sorts keys by their low bitsWanted bits and,
// when vals is non-nil, applies the same permutation to vals.
func radixSort(s *parallel.Scheduler, keys []uint64, vals []uint32, bitsWanted int) {
	n := len(keys)
	if n <= 1 {
		return
	}
	if bitsWanted <= 0 || bitsWanted > 64 {
		bitsWanted = 64
	}
	if n < 256 {
		insertionSortMasked(keys, vals, bitsWanted)
		return
	}
	// Mid-size inputs sort as one block: a counting-sort pass is ~4n memory
	// ops and parallel dispatch would dominate (round-based algorithms like
	// k-core sort one small batch per round).
	bounds := []int{0, n}
	if n >= 16384 {
		bounds = s.Blocks(n, 4096)
	}
	counts := make([]int, (len(bounds)-1)*radixBuckets)
	passes := (bitsWanted + radixBits - 1) / radixBits
	kbuf := make([]uint64, n)
	var vbuf []uint32
	if vals != nil {
		vbuf = make([]uint32, n)
	}
	ks, kd, vs, vd := keys, kbuf, vals, vbuf
	for p := 0; p < passes; p++ {
		radixPass(s, bounds, counts, ks, kd, vs, vd, uint(p*radixBits))
		ks, kd, vs, vd = kd, ks, vd, vs
	}
	if passes%2 == 1 {
		copy(keys, kbuf)
		copy(vals, vbuf)
	}
}

// radixPass is one stable counting-sort pass on the digit at shift: per-block
// digit counts into counts (radixBuckets per block), a digit-major scan, and
// a scatter of ksrc into kdst that carries vsrc into vdst when vsrc is
// non-nil. Over the single block [0, n) it is the sequential pass: the same
// block loops called directly, with the scan a plain prefix sum.
func radixPass(s *parallel.Scheduler, bounds, counts []int, ksrc, kdst []uint64, vsrc, vdst []uint32, shift uint) {
	clear(counts)
	nb := len(bounds) - 1
	if nb == 1 {
		c := (*[radixBuckets]int)(counts)
		radixCount(c, ksrc, shift)
		scanSeq(counts, counts, 0)
		radixScatter(c, ksrc, kdst, vsrc, vdst, 0, len(ksrc), shift)
		return
	}
	s.ForBlocks(bounds, func(b, lo, hi int) {
		radixCount((*[radixBuckets]int)(counts[b*radixBuckets:]), ksrc[lo:hi], shift)
	})
	// Digit-major scan: offsets for digit r precede digit r+1; within a
	// digit, earlier blocks precede later blocks, preserving stability.
	total := 0
	for r := 0; r < radixBuckets; r++ {
		for b := 0; b < nb; b++ {
			c := counts[b*radixBuckets+r]
			counts[b*radixBuckets+r] = total
			total += c
		}
	}
	s.ForBlocks(bounds, func(b, lo, hi int) {
		radixScatter((*[radixBuckets]int)(counts[b*radixBuckets:]), ksrc, kdst, vsrc, vdst, lo, hi, shift)
	})
}

// radixCount adds the digit counts of keys into c. c is an array pointer so
// indexing it by a masked digit needs no bounds check.
func radixCount(c *[radixBuckets]int, keys []uint64, shift uint) {
	for _, k := range keys {
		c[(k>>shift)&(radixBuckets-1)]++
	}
}

// radixScatter moves block [lo, hi) of ksrc (and of vsrc, when non-nil) to
// the output offsets in c, advancing them.
func radixScatter(c *[radixBuckets]int, ksrc, kdst []uint64, vsrc, vdst []uint32, lo, hi int, shift uint) {
	// The keys-only scatter gets its own loop so keys-only sorts (Histogram,
	// RandomPermutation) pay no per-element payload check.
	if vsrc == nil {
		for _, k := range ksrc[lo:hi] {
			r := (k >> shift) & (radixBuckets - 1)
			kdst[c[r]] = k
			c[r]++
		}
		return
	}
	for i := lo; i < hi; i++ {
		r := (ksrc[i] >> shift) & (radixBuckets - 1)
		o := c[r]
		kdst[o] = ksrc[i]
		vdst[o] = vsrc[i]
		c[r]++
	}
}

// insertionSortMasked stably sorts keys by their low bitsWanted bits,
// carrying vals along when it is non-nil.
func insertionSortMasked(keys []uint64, vals []uint32, bitsWanted int) {
	mask := ^uint64(0)
	if bitsWanted < 64 {
		mask = (uint64(1) << uint(bitsWanted)) - 1
	}
	for i := 1; i < len(keys); i++ {
		k := keys[i]
		j := i - 1
		for j >= 0 && keys[j]&mask > k&mask {
			j--
		}
		copy(keys[j+2:i+1], keys[j+1:i])
		keys[j+1] = k
		if vals != nil {
			v := vals[i]
			copy(vals[j+2:i+1], vals[j+1:i])
			vals[j+1] = v
		}
	}
}

// BitsFor returns the number of bits needed to represent values in [0, n].
func BitsFor(n uint64) int {
	if n == 0 {
		return 1
	}
	return bits.Len64(n)
}
