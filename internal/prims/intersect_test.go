package prims

import (
	"bytes"
	"math/rand"
	"testing"
)

// naiveIntersect counts the values a and b share by a double loop.
func naiveIntersect(a, b []uint32) int {
	count := 0
	for _, x := range a {
		for _, y := range b {
			if x == y {
				count++
			}
		}
	}
	return count
}

// sortedSet returns n strictly increasing values whose gaps are drawn from
// [1, maxGap], starting at start.
func sortedSet(rng *rand.Rand, n int, start uint32, maxGap int) []uint32 {
	out := make([]uint32, n)
	v := start
	for i := range out {
		v += uint32(1 + rng.Intn(maxGap))
		out[i] = v
	}
	return out
}

// IntersectCount equals the naive count on random sorted, duplicate-free
// lists of every size relation the kernel distinguishes: empty, equal,
// disjoint, and each side of the 32x ratio where the merge hands over to
// galloping, in both argument orders.
func TestIntersectCountMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	check := func(what string, a, b []uint32) {
		t.Helper()
		want := naiveIntersect(a, b)
		if got := IntersectCount(a, b); got != want {
			t.Fatalf("%s (|a|=%d |b|=%d): got %d want %d", what, len(a), len(b), got, want)
		}
		if got := IntersectCount(b, a); got != want {
			t.Fatalf("%s swapped (|a|=%d |b|=%d): got %d want %d", what, len(b), len(a), got, want)
		}
	}
	for _, la := range []int{0, 1, 2, 3, 5, 8, 17, 40} {
		for _, lb := range []int{0, 1, la, 2 * la, max(0, 32*la-1), 32 * la, 32*la + 1, 40 * la} {
			for _, gap := range []int{1, 2, 3, 8, 64} {
				a := sortedSet(rng, la, uint32(rng.Intn(4)), gap)
				b := sortedSet(rng, lb, uint32(rng.Intn(4)), max(1, gap*la/max(1, lb)))
				check("random", a, b)
			}
		}
		a := sortedSet(rng, la, 0, 3)
		check("equal", a, append([]uint32(nil), a...))
		evens, odds := make([]uint32, la), make([]uint32, 32*la)
		for i := range evens {
			evens[i] = uint32(2 * i)
		}
		for i := range odds {
			odds[i] = uint32(2*i + 1)
		}
		check("disjoint", evens, odds[:la])
		check("disjoint galloping", evens, odds)
	}
	// Values at the top of the uint32 range: the difference of two
	// entries needs the 64-bit subtraction the kernel uses.
	check("extremes", []uint32{0, 1, 1 << 31, 1<<32 - 1}, []uint32{0, 1<<31 - 1, 1 << 31, 1<<32 - 1})
}

// FuzzIntersectCount checks the kernel against the naive count on lists the
// fuzzer shapes: data is split at cut into two byte runs, and each byte is
// one gap (0-3, so the lists overlap often) of a strictly increasing list.
func FuzzIntersectCount(f *testing.F) {
	f.Add([]byte{}, uint16(0))
	f.Add([]byte{1, 2, 3, 1, 2, 3}, uint16(3))
	f.Add(bytes.Repeat([]byte{0}, 66), uint16(2))
	f.Add(bytes.Repeat([]byte{1, 3}, 99), uint16(3))
	f.Fuzz(func(t *testing.T, data []byte, cut uint16) {
		split := 0
		if len(data) > 0 {
			split = int(cut) % (len(data) + 1)
		}
		decode := func(gaps []byte, start uint32) []uint32 {
			out := make([]uint32, len(gaps))
			v := start
			for i, g := range gaps {
				v += 1 + uint32(g&3)
				out[i] = v
			}
			return out
		}
		a, b := decode(data[:split], 0), decode(data[split:], uint32(cut>>14))
		want := naiveIntersect(a, b)
		if got := IntersectCount(a, b); got != want {
			t.Fatalf("IntersectCount(%v, %v) = %d, want %d", a, b, got, want)
		}
	})
}
