package hashtable

import (
	"runtime"
	"slices"
	"testing"

	"repro/internal/parallel"
)

// sched is the scheduler every test in this package runs on, at the
// hardware width so the parallel code paths stay covered. Tests that need
// another width build their own with parallel.New.
var sched = parallel.New(runtime.NumCPU())

func TestInsertContains(t *testing.T) {
	tb := New(sched, 100)
	if !tb.Insert(3, 7) {
		t.Fatal("first insert returned false")
	}
	if tb.Insert(3, 7) {
		t.Fatal("duplicate insert returned true")
	}
	if !tb.Contains(3, 7) || tb.Contains(3, 8) || tb.Contains(4, 7) {
		t.Fatal("Contains wrong")
	}
	if tb.Len() != 1 {
		t.Fatalf("Len = %d", tb.Len())
	}
}

func TestForEachOfEnumeratesAllLabels(t *testing.T) {
	tb := New(sched, 1000)
	for l := uint32(0); l < 20; l++ {
		tb.Insert(42, l)
		tb.Insert(43, l+100)
	}
	var got []uint32
	tb.ForEachOf(42, func(l uint32) bool { got = append(got, l); return true })
	slices.Sort(got)
	if len(got) != 20 {
		t.Fatalf("got %d labels", len(got))
	}
	for i, l := range got {
		if l != uint32(i) {
			t.Fatalf("labels = %v", got)
		}
	}
	if tb.CountOf(43) != 20 || tb.CountOf(44) != 0 {
		t.Fatal("CountOf wrong")
	}
}

func TestForEachOfEarlyStop(t *testing.T) {
	tb := New(sched, 100)
	for l := uint32(0); l < 10; l++ {
		tb.Insert(1, l)
	}
	seen := 0
	tb.ForEachOf(1, func(l uint32) bool { seen++; return seen < 3 })
	if seen != 3 {
		t.Fatalf("early stop saw %d", seen)
	}
}

func TestConcurrentInsertsExactCount(t *testing.T) {
	tb := New(sched, 1<<16)
	n := 50000
	// Every pair inserted twice from different positions: exactly n unique.
	sched.For(2*n, 64, func(i int) {
		j := i % n
		tb.Insert(uint32(j%997), uint32(j))
	})
	if tb.Len() != n {
		t.Fatalf("Len = %d want %d", tb.Len(), n)
	}
	for j := 0; j < n; j++ {
		if !tb.Contains(uint32(j%997), uint32(j)) {
			t.Fatalf("missing pair %d", j)
		}
	}
}

func TestReserveGrowsAndPreserves(t *testing.T) {
	tb := New(sched, 16)
	for i := uint32(0); i < 10; i++ {
		tb.Insert(i, i*i)
	}
	capBefore := len(tb.slots)
	tb.Reserve(100000)
	if len(tb.slots) <= capBefore {
		t.Fatal("Reserve did not grow")
	}
	if tb.Len() != 10 {
		t.Fatalf("Len after grow = %d", tb.Len())
	}
	for i := uint32(0); i < 10; i++ {
		if !tb.Contains(i, i*i) {
			t.Fatalf("lost pair %d after grow", i)
		}
	}
	// Small reserve within capacity is a no-op.
	capNow := len(tb.slots)
	tb.Reserve(1)
	if len(tb.slots) != capNow {
		t.Fatal("unneeded Reserve changed capacity")
	}
}

func TestEntries(t *testing.T) {
	tb := New(sched, 64)
	tb.Insert(5, 6)
	tb.Insert(7, 8)
	e := tb.Entries()
	if len(e) != 2 {
		t.Fatalf("Entries len = %d", len(e))
	}
	seen := map[uint64]bool{}
	for _, p := range e {
		seen[p] = true
	}
	if !seen[5<<32|6] || !seen[7<<32|8] {
		t.Fatalf("Entries = %v", e)
	}
}

func TestHeavyCollisionVertex(t *testing.T) {
	// All labels on one vertex: the probe run must stay correct as it wraps.
	tb := New(sched, 64)
	for l := uint32(0); l < 40; l++ {
		tb.Insert(9, l)
	}
	if tb.CountOf(9) != 40 {
		t.Fatalf("CountOf = %d", tb.CountOf(9))
	}
}
