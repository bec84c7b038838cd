// Package atomics implements the three atomic primitives of the paper's
// MT-RAM model variants (§3): test-and-set (TS), fetch-and-add (FA) and
// priority-write (PW), over the word types used by the algorithms. Keeping
// them in one tiny package makes algorithm code read like the paper's
// pseudocode.
package atomics

import (
	"math"
	"sync/atomic"
)

// TestAndSet checks whether *x is 0 and, if so, atomically sets it to 1 and
// returns true; otherwise it returns false.
func TestAndSet(x *uint32) bool {
	return atomic.LoadUint32(x) == 0 && atomic.CompareAndSwapUint32(x, 0, 1)
}

// TestAndSet8 is TestAndSet over a byte array slot. Go's sync/atomic has no
// byte CAS, so flags packed one-per-byte use uint32 CAS on the containing
// word; callers that need byte-dense flags should use a []uint32 bitset via
// TestAndSetBit instead.
func TestAndSetBit(bits []uint32, i int) bool {
	w, m := i>>5, uint32(1)<<(uint(i)&31)
	for {
		old := atomic.LoadUint32(&bits[w])
		if old&m != 0 {
			return false
		}
		if atomic.CompareAndSwapUint32(&bits[w], old, old|m) {
			return true
		}
	}
}

// Bit reports bit i of the bitset without synchronization beyond an atomic
// load of the containing word.
func Bit(bits []uint32, i int) bool {
	return atomic.LoadUint32(&bits[i>>5])&(uint32(1)<<(uint(i)&31)) != 0
}

// FetchAndAdd32 atomically adds delta to *x and returns the prior value.
func FetchAndAdd32(x *uint32, delta uint32) uint32 {
	return atomic.AddUint32(x, delta) - delta
}

// WriteMin32 atomically sets *x = min(*x, v) and reports whether v became the
// new value (the paper's priority-write with the < priority function).
func WriteMin32(x *uint32, v uint32) bool {
	for {
		old := atomic.LoadUint32(x)
		if v >= old {
			return false
		}
		if atomic.CompareAndSwapUint32(x, old, v) {
			return true
		}
	}
}

// WriteMin64 atomically sets *x = min(*x, v) over int64 and reports whether v
// became the new value. Used by Bellman-Ford's distance relaxations.
func WriteMin64(x *int64, v int64) bool {
	for {
		old := atomic.LoadInt64(x)
		if v >= old {
			return false
		}
		if atomic.CompareAndSwapInt64(x, old, v) {
			return true
		}
	}
}

// WriteMinU64 atomically sets *x = min(*x, v) over uint64 and reports whether
// v became the new value. Borůvka uses it with (weight, edge-id) packed keys.
func WriteMinU64(x *uint64, v uint64) bool {
	for {
		old := atomic.LoadUint64(x)
		if v >= old {
			return false
		}
		if atomic.CompareAndSwapUint64(x, old, v) {
			return true
		}
	}
}

// AddFloat64 atomically adds delta to the float64 stored in *bits (as
// math.Float64bits). Betweenness centrality accumulates shortest-path
// dependencies with this fetch-and-add.
func AddFloat64(bits *uint64, delta float64) {
	AddFloat64Prev(bits, delta)
}

// AddFloat64Prev is AddFloat64 returning the value held before the add (a
// true fetch-and-add). BC's path counting uses "previous value was zero" to
// add each vertex to the next frontier exactly once (Algorithm 3's
// PathUpdate).
func AddFloat64Prev(bits *uint64, delta float64) float64 {
	for {
		old := atomic.LoadUint64(bits)
		nw := math.Float64bits(math.Float64frombits(old) + delta)
		if atomic.CompareAndSwapUint64(bits, old, nw) {
			return math.Float64frombits(old)
		}
	}
}

// LoadFloat64 reads the float64 stored in *bits.
func LoadFloat64(bits *uint64) float64 {
	return math.Float64frombits(atomic.LoadUint64(bits))
}

// StoreFloat64 stores v into *bits.
func StoreFloat64(bits *uint64, v float64) {
	atomic.StoreUint64(bits, math.Float64bits(v))
}

// CAS32 is a convenience alias for CompareAndSwapUint32.
func CAS32(x *uint32, old, nw uint32) bool {
	return atomic.CompareAndSwapUint32(x, old, nw)
}

// Load32 is an atomic load of *x.
func Load32(x *uint32) uint32 { return atomic.LoadUint32(x) }

// Store32 is an atomic store to *x.
func Store32(x *uint32, v uint32) { atomic.StoreUint32(x, v) }
