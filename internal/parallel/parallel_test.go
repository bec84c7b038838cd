package parallel

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// sched is the scheduler the tests below run on, at the hardware width.
var sched = New(runtime.NumCPU())

func TestForRangeCoversAllIndicesOnce(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 100, 1023, 1 << 16} {
		for _, grain := range []int{0, 1, 3, 64, 100000} {
			seen := make([]int32, n)
			sched.ForRange(n, grain, func(lo, hi int) {
				if lo < 0 || hi > n || lo > hi {
					t.Errorf("n=%d grain=%d: bad range [%d,%d)", n, grain, lo, hi)
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&seen[i], 1)
				}
			})
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("n=%d grain=%d: index %d covered %d times", n, grain, i, c)
				}
			}
		}
	}
}

func TestForCoversAllIndices(t *testing.T) {
	n := 10000
	var sum atomic.Int64
	sched.For(n, 0, func(i int) { sum.Add(int64(i)) })
	want := int64(n) * int64(n-1) / 2
	if sum.Load() != want {
		t.Fatalf("For sum = %d, want %d", sum.Load(), want)
	}
}

func TestForRangeSingleWorkerRunsInline(t *testing.T) {
	// With one worker the body must run on the calling goroutine in order.
	last := -1
	New(1).ForRange(1000, 10, func(lo, hi int) {
		if lo != last+1 {
			t.Fatalf("out-of-order block start %d after %d", lo, last)
		}
		last = hi - 1
	})
	if last != 999 {
		t.Fatalf("last = %d", last)
	}
}

// TestSetWorkersClampsToOne checks that asking for a non-positive worker
// count, whether through New or NewWithGrain, yields one worker that still
// runs every iteration.
func TestSetWorkersClampsToOne(t *testing.T) {
	for _, s := range []*Scheduler{New(-5), NewWithGrain(-5, 16)} {
		if s.Workers() != 1 {
			t.Fatalf("Workers() = %d for a scheduler built with -5", s.Workers())
		}
		var count atomic.Int64
		s.For(100, 0, func(i int) { count.Add(1) })
		if count.Load() != 100 {
			t.Fatalf("clamped scheduler ran %d of 100 iterations", count.Load())
		}
		s.Close()
	}
}

func TestDoRunsBoth(t *testing.T) {
	var a, b atomic.Bool
	sched.Do(func() { a.Store(true) }, func() { b.Store(true) })
	if !a.Load() || !b.Load() {
		t.Fatal("Do did not run both functions")
	}
}

func TestBlocksPartition(t *testing.T) {
	for _, n := range []int{0, 1, 5, 100, 4097} {
		for _, grain := range []int{0, 1, 7, 4096} {
			b := sched.Blocks(n, grain)
			if b[0] != 0 || b[len(b)-1] != n {
				t.Fatalf("sched.Blocks(%d,%d) endpoints: %v", n, grain, b)
			}
			for i := 1; i < len(b); i++ {
				if b[i] <= b[i-1] && n > 0 {
					t.Fatalf("sched.Blocks(%d,%d) non-increasing: %v", n, grain, b)
				}
			}
		}
	}
}

// TestBlocksSingleWorkerIsOneBlock pins the one-worker rule: like ForRange,
// Blocks on a one-worker scheduler is the single block [0, n) whatever the
// grain, so a primitive's one-block branch is its one-worker path.
func TestBlocksSingleWorkerIsOneBlock(t *testing.T) {
	s := New(1)
	for _, n := range []int{1, 5, 511, 512, 513, 4097, 1 << 15, 1<<20 + 3} {
		for _, grain := range []int{0, 1, 7, 512, 4096} {
			if b := s.Blocks(n, grain); len(b) != 2 || b[0] != 0 || b[1] != n {
				t.Fatalf("New(1).Blocks(%d, %d) = %d bounds, want the single block [0, %d)", n, grain, len(b), n)
			}
		}
	}
}

func TestNestedParallelism(t *testing.T) {
	// A parallel loop spawning parallel loops must not deadlock and must
	// cover the full 2-D space.
	n, m := 64, 64
	seen := make([]int32, n*m)
	sched.For(n, 1, func(i int) {
		sched.For(m, 8, func(j int) {
			atomic.AddInt32(&seen[i*m+j], 1)
		})
	})
	for idx, c := range seen {
		if c != 1 {
			t.Fatalf("cell %d covered %d times", idx, c)
		}
	}
}

func BenchmarkForRangeOverhead(b *testing.B) {
	x := make([]int64, 1<<20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sched.ForRange(len(x), 0, func(lo, hi int) {
			for j := lo; j < hi; j++ {
				x[j]++
			}
		})
	}
}
