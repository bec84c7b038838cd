package prims

import (
	"cmp"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/parallel"
)

// sched is the scheduler every test in this package runs on, at the
// hardware width so the parallel code paths stay covered. Tests that need
// another width build their own with parallel.New.
var sched = parallel.New(runtime.NumCPU())

func TestScanMatchesSequential(t *testing.T) {
	for _, n := range []int{0, 1, 2, 1000, 1 << 15} {
		a := make([]int64, n)
		for i := range a {
			a[i] = int64(i%7 - 3)
		}
		out := make([]int64, n)
		total := Scan(sched, a, out)
		var s int64
		for i := 0; i < n; i++ {
			if out[i] != s {
				t.Fatalf("n=%d: out[%d]=%d want %d", n, i, out[i], s)
			}
			s += a[i]
		}
		if total != s {
			t.Fatalf("n=%d: total=%d want %d", n, total, s)
		}
	}
}

func TestScanInPlace(t *testing.T) {
	a := []int{5, 3, 1, 2}
	total := ScanInPlace(sched, a)
	want := []int{0, 5, 8, 9}
	if total != 11 || !slices.Equal(a, want) {
		t.Fatalf("got %v total %d", a, total)
	}
}

func TestScanQuickProperty(t *testing.T) {
	err := quick.Check(func(a []int32) bool {
		in := make([]int64, len(a))
		for i, v := range a {
			in[i] = int64(v)
		}
		out := make([]int64, len(in))
		total := Scan(sched, in, out)
		var s int64
		for i := range in {
			if out[i] != s {
				return false
			}
			s += in[i]
		}
		return total == s
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReduceAndSum(t *testing.T) {
	a := make([]int, 100000)
	for i := range a {
		a[i] = i
	}
	if got := Sum(sched, a); got != 100000*99999/2 {
		t.Fatalf("Sum = %d", got)
	}
	if got := Max(sched, a); got != 99999 {
		t.Fatalf("Max = %d", got)
	}
	if got := Reduce(sched, []int{}, -1, func(x, y int) int { return x + y }); got != -1 {
		t.Fatalf("Reduce empty = %d", got)
	}
}

func TestMapReduceAndCount(t *testing.T) {
	n := 12345
	got := MapReduce(sched, n, 0, func(i int) int { return i * 2 }, func(x, y int) int { return x + y })
	if got != n*(n-1) {
		t.Fatalf("MapReduce = %d want %d", got, n*(n-1))
	}
	c := Count(sched, n, func(i int) bool { return i%3 == 0 })
	want := (n + 2) / 3
	if c != want {
		t.Fatalf("Count = %d want %d", c, want)
	}
}

func TestFilterMatchesSequential(t *testing.T) {
	for _, n := range []int{0, 1, 13, 100000} {
		a := make([]uint32, n)
		for i := range a {
			a[i] = uint32(i * 7 % 256)
		}
		pred := func(v uint32) bool { return v%2 == 0 }
		got := Filter(sched, a, pred)
		var want []uint32
		for _, v := range a {
			if pred(v) {
				want = append(want, v)
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("n=%d: Filter mismatch (%d vs %d elements)", n, len(got), len(want))
		}
	}
}

func TestFilterInto(t *testing.T) {
	a := []int{1, 2, 3, 4, 5, 6}
	out := make([]int, 6)
	k := FilterInto(sched, a, out, func(v int) bool { return v > 3 })
	if k != 3 || !slices.Equal(out[:k], []int{4, 5, 6}) {
		t.Fatalf("FilterInto got %v k=%d", out[:k], k)
	}
}

func TestPackIndex(t *testing.T) {
	got := PackIndex(sched, 10, func(i int) bool { return i%3 == 0 })
	if !slices.Equal(got, []uint32{0, 3, 6, 9}) {
		t.Fatalf("PackIndex = %v", got)
	}
	if PackIndex(sched, 0, func(int) bool { return true }) != nil {
		t.Fatal("PackIndex(sched, 0) should be nil")
	}
}

func TestMapFilter(t *testing.T) {
	got := MapFilter(sched, 6, func(i int) bool { return i%2 == 1 }, func(i int) int { return i * i })
	if !slices.Equal(got, []int{1, 9, 25}) {
		t.Fatalf("MapFilter = %v", got)
	}
}

func TestRadixSortU64FullWidth(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 100, 5000, 100000} {
		a := make([]uint64, n)
		for i := range a {
			a[i] = rng.Uint64()
		}
		want := slices.Clone(a)
		slices.Sort(want)
		RadixSortU64(sched, a, 64)
		if !slices.Equal(a, want) {
			t.Fatalf("n=%d: radix sort mismatch", n)
		}
	}
}

func TestRadixSortU64PartialBitsIsStable(t *testing.T) {
	// Sorting by the low 8 bits must keep equal-low-byte elements in input
	// order; encode original index in the high bits to verify.
	n := 10000
	a := make([]uint64, n)
	rng := rand.New(rand.NewSource(2))
	for i := range a {
		a[i] = uint64(i)<<8 | uint64(rng.Intn(16))
	}
	RadixSortU64(sched, a, 8)
	for i := 1; i < n; i++ {
		lo0, lo1 := a[i-1]&0xff, a[i]&0xff
		if lo0 > lo1 {
			t.Fatalf("not sorted by low bits at %d", i)
		}
		if lo0 == lo1 && a[i-1]>>8 > a[i]>>8 {
			t.Fatalf("not stable at %d", i)
		}
	}
}

func TestRadixSortPairsCarriesPayload(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := 50000
	keys := make([]uint64, n)
	vals := make([]uint32, n)
	for i := range keys {
		keys[i] = uint64(rng.Intn(1000))
		vals[i] = uint32(i)
	}
	orig := slices.Clone(keys)
	RadixSortPairs(sched, keys, vals, BitsFor(1000))
	if !slices.IsSorted(keys) {
		t.Fatal("keys not sorted")
	}
	for i := range keys {
		if orig[vals[i]] != keys[i] {
			t.Fatalf("payload broken at %d", i)
		}
	}
	// Stability: equal keys keep increasing payload order.
	for i := 1; i < n; i++ {
		if keys[i-1] == keys[i] && vals[i-1] >= vals[i] {
			t.Fatalf("unstable at %d", i)
		}
	}
}

func TestRadixSortQuickProperty(t *testing.T) {
	err := quick.Check(func(a []uint64) bool {
		want := slices.Clone(a)
		slices.Sort(want)
		got := slices.Clone(a)
		RadixSortU64(sched, got, 64)
		return slices.Equal(got, want)
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRandomPermutationIsPermutation(t *testing.T) {
	for _, n := range []int{0, 1, 2, 1000, 1 << 16} {
		p := RandomPermutation(sched, n, 42)
		if len(p) != n {
			t.Fatalf("len = %d want %d", len(p), n)
		}
		seen := make([]bool, n)
		for _, v := range p {
			if int(v) >= n || seen[v] {
				t.Fatalf("n=%d: not a permutation", n)
			}
			seen[v] = true
		}
	}
}

func TestRandomPermutationVariesWithSeed(t *testing.T) {
	a := RandomPermutation(sched, 1000, 1)
	b := RandomPermutation(sched, 1000, 2)
	if slices.Equal(a, b) {
		t.Fatal("different seeds gave identical permutations")
	}
	c := RandomPermutation(sched, 1000, 1)
	if !slices.Equal(a, c) {
		t.Fatal("same seed gave different permutations")
	}
}

func TestInversePermutation(t *testing.T) {
	p := RandomPermutation(sched, 5000, 7)
	inv := InversePermutation(sched, p)
	for i, v := range p {
		if inv[v] != uint32(i) {
			t.Fatalf("inverse broken at %d", i)
		}
	}
}

func TestHistogramMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 1, 100, 100000} {
		keys := make([]uint32, n)
		for i := range keys {
			keys[i] = uint32(rng.Intn(500))
		}
		ids, counts := Histogram(sched, keys, BitsFor(500))
		want := map[uint32]uint32{}
		for _, k := range keys {
			want[k]++
		}
		if len(ids) != len(want) {
			t.Fatalf("n=%d: %d distinct keys, want %d", n, len(ids), len(want))
		}
		for i, id := range ids {
			if counts[i] != want[id] {
				t.Fatalf("n=%d: key %d count %d want %d", n, id, counts[i], want[id])
			}
			if i > 0 && ids[i-1] >= id {
				t.Fatalf("ids not sorted at %d", i)
			}
		}
	}
}

func TestApproxThreshold(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 100000
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = rng.Uint64() % 1000000
	}
	sorted := slices.Clone(keys)
	slices.Sort(sorted)
	for _, k := range []int{1, 100, n / 2, n - 1, n, 2 * n} {
		pivot := ApproxThreshold(sched, keys, k, 11)
		cnt := 0
		for _, v := range keys {
			if v <= pivot {
				cnt++
			}
		}
		wantAtLeast := k
		if wantAtLeast > n {
			wantAtLeast = n
		}
		if cnt < wantAtLeast {
			t.Fatalf("k=%d: pivot selects %d < %d", k, cnt, wantAtLeast)
		}
		// Must not wildly overshoot: the sampling slack is ~s/64 of the
		// input plus sampling noise, so allow 4k + n/32 + constant.
		if k < n && cnt > 4*k+n/32+1000 {
			t.Fatalf("k=%d: pivot selects %d, far more than requested", k, cnt)
		}
	}
}

func TestPrimsUnderSingleWorker(t *testing.T) {
	s := parallel.New(1)
	a := make([]int, 10000)
	for i := range a {
		a[i] = 1
	}
	if Sum(s, a) != 10000 {
		t.Fatal("Sum wrong with 1 worker")
	}
	out := make([]int, len(a))
	if Scan(s, a, out) != 10000 || out[9999] != 9999 {
		t.Fatal("Scan wrong with 1 worker")
	}
	p := RandomPermutation(s, 1000, 3)
	sort.Slice(p, func(i, j int) bool { return p[i] < p[j] })
	for i, v := range p {
		if v != uint32(i) {
			t.Fatal("permutation wrong with 1 worker")
		}
	}
}

// affine is x ↦ mul·x + add over wrapping uint64 arithmetic. Composition is
// associative but not commutative, so a reduction over affine maps checks
// that blocked reductions combine their partials in index order.
type affine struct{ mul, add uint64 }

func then(f, g affine) affine { return affine{g.mul * f.mul, g.mul*f.add + g.add} }

// TestPrimsMatchSequentialAtEveryWidth runs every pack, scan, reduce and
// radix entry point at 1, 2 and NumCPU workers, on sizes around the default
// grain (512), the insertion-sort cut-off (256) and the parallel radix
// cut-off (16384), and compares each result with a sequential reference.
func TestPrimsMatchSequentialAtEveryWidth(t *testing.T) {
	for _, p := range []int{1, 2, runtime.NumCPU()} {
		s := parallel.New(p)
		defer s.Close()
		for _, n := range []int{0, 1, 255, 511, 512, 513, 8*512 + 1, 1<<15 + 3} {
			check := func(what string, ok bool) {
				t.Helper()
				if !ok {
					t.Errorf("p=%d n=%d: %s differs from the sequential reference", p, n, what)
				}
			}
			rng := rand.New(rand.NewSource(int64(n)))
			a := make([]uint64, n)
			for i := range a {
				a[i] = rng.Uint64() >> 24
			}

			wantScan := make([]uint64, n)
			var total uint64
			for i, v := range a {
				wantScan[i] = total
				total += v
			}
			got := make([]uint64, n)
			check("Scan", Scan(s, a, got) == total && slices.Equal(got, wantScan))
			got = slices.Clone(a)
			check("ScanInPlace", ScanInPlace(s, got) == total && slices.Equal(got, wantScan))
			check("Sum", Sum(s, a) == total)
			if n > 0 {
				check("Max", Max(s, a) == slices.Max(a))
			}

			maps := make([]affine, n)
			wantMap := affine{1, 0}
			for i, v := range a {
				maps[i] = affine{v | 1, v >> 3}
				wantMap = then(wantMap, maps[i])
			}
			check("Reduce", Reduce(s, maps, affine{1, 0}, then) == wantMap)
			check("MapReduce", MapReduce(s, n, affine{1, 0}, func(i int) affine { return maps[i] }, then) == wantMap)

			pred := func(v uint64) bool { return v%3 == 0 }
			keep := func(i int) bool { return pred(a[i]) }
			var wantKept, wantMapped []uint64
			var wantIdx []uint32
			for i, v := range a {
				if pred(v) {
					wantKept = append(wantKept, v)
					wantIdx = append(wantIdx, uint32(i))
					wantMapped = append(wantMapped, 2*v+1)
				}
			}
			check("Filter", slices.Equal(Filter(s, a, pred), wantKept))
			into := make([]uint64, n)
			k := FilterInto(s, a, into, pred)
			check("FilterInto", k == len(wantKept) && slices.Equal(into[:k], wantKept))
			check("PackIndex", slices.Equal(PackIndex(s, n, keep), wantIdx))
			check("MapFilter", slices.Equal(MapFilter(s, n, keep, func(i int) uint64 { return 2*a[i] + 1 }), wantMapped))
			check("Count", Count(s, n, keep) == len(wantKept))

			got = slices.Clone(a)
			RadixSortU64(s, got, 40)
			check("RadixSortU64 (full key)", slices.IsSorted(got) && slices.Equal(got, slices.Sorted(slices.Values(a))))
			// Sorting by the low 16 bits only must be stable: the reference
			// is a stable sort of the indices by those bits.
			order := make([]uint32, n)
			for i := range order {
				order[i] = uint32(i)
			}
			slices.SortStableFunc(order, func(x, y uint32) int { return cmp.Compare(a[x]&0xffff, a[y]&0xffff) })
			got = slices.Clone(a)
			RadixSortU64(s, got, 16)
			keys, vals := slices.Clone(a), slices.Clone(order)
			slices.Sort(vals) // the identity payload
			RadixSortPairs(s, keys, vals, 16)
			okLow, okPairs := true, slices.Equal(vals, order)
			for i, j := range order {
				okLow = okLow && got[i] == a[j]
				okPairs = okPairs && keys[i] == a[j]
			}
			check("RadixSortU64 (low bits)", okLow)
			check("RadixSortPairs", okPairs)

			keys32 := make([]uint32, n)
			for i, v := range a {
				keys32[i] = uint32(v % 1000)
			}
			var wantIDs, wantCounts []uint32
			for _, v := range slices.Sorted(slices.Values(keys32)) {
				if last := len(wantIDs) - 1; last >= 0 && wantIDs[last] == v {
					wantCounts[last]++
				} else {
					wantIDs, wantCounts = append(wantIDs, v), append(wantCounts, 1)
				}
			}
			ids, counts := Histogram(s, keys32, BitsFor(999))
			check("Histogram", slices.Equal(ids, wantIDs) && slices.Equal(counts, wantCounts))
		}
	}
}
