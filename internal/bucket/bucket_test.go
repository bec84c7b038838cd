package bucket

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

func TestIncreasingBasic(t *testing.T) {
	// Identifier i lives in bucket i%5.
	vals := []uint32{0, 1, 2, 3, 4, 0, 1, 2, 3, 4}
	b := New(sched, len(vals), 4, Increasing, 4, func(i uint32) uint32 { return vals[i] })
	seen := map[uint32][]uint32{}
	for {
		bkt, ids := b.NextBucket()
		if bkt == Nil {
			break
		}
		slices.Sort(ids)
		seen[bkt] = append(seen[bkt], ids...)
	}
	if len(seen) != 5 {
		t.Fatalf("saw %d buckets want 5", len(seen))
	}
	if !slices.Equal(seen[2], []uint32{2, 7}) {
		t.Fatalf("bucket 2 = %v", seen[2])
	}
}

func TestNilIdentifiersNeverAppear(t *testing.T) {
	b := New(sched, 10, 0, Increasing, 10, func(i uint32) uint32 {
		if i%2 == 0 {
			return Nil
		}
		return i
	})
	var got []uint32
	for {
		bkt, ids := b.NextBucket()
		if bkt == Nil {
			break
		}
		got = append(got, ids...)
	}
	slices.Sort(got)
	if !slices.Equal(got, []uint32{1, 3, 5, 7, 9}) {
		t.Fatalf("got %v", got)
	}
}

func TestUpdateMovesIdentifiers(t *testing.T) {
	// Start everyone in bucket 5; after extracting bucket 5 is empty but we
	// move half of them before extraction.
	cur := []uint32{5, 5, 5, 5}
	b := New(sched, 4, 2, Increasing, 100, func(i uint32) uint32 { return cur[i] })
	cur[0], cur[1] = 7, 9
	b.Update([]uint32{0, 1})
	order := map[uint32]uint32{}
	for {
		bkt, ids := b.NextBucket()
		if bkt == Nil {
			break
		}
		for _, id := range ids {
			if _, dup := order[id]; dup {
				t.Fatalf("identifier %d extracted twice", id)
			}
			order[id] = bkt
		}
	}
	want := map[uint32]uint32{0: 7, 1: 9, 2: 5, 3: 5}
	for id, bkt := range want {
		if order[id] != bkt {
			t.Fatalf("id %d extracted at %d want %d", id, order[id], bkt)
		}
	}
}

func TestUpdateToNilRemoves(t *testing.T) {
	cur := []uint32{1, 1, 1}
	b := New(sched, 3, 0, Increasing, 10, func(i uint32) uint32 { return cur[i] })
	cur[1] = Nil
	b.Update([]uint32{1})
	var got []uint32
	for {
		bkt, ids := b.NextBucket()
		if bkt == Nil {
			break
		}
		got = append(got, ids...)
	}
	slices.Sort(got)
	if !slices.Equal(got, []uint32{0, 2}) {
		t.Fatalf("got %v", got)
	}
}

func TestRepeatedUpdatesNoDuplicates(t *testing.T) {
	// Update the same identifier many times, including to the same bucket,
	// then check it is extracted exactly once at its final bucket.
	cur := []uint32{50}
	b := New(sched, 1, 4, Increasing, 1000, func(i uint32) uint32 { return cur[i] })
	for k := 0; k < 10; k++ {
		b.Update([]uint32{0}) // same bucket: must not duplicate
	}
	cur[0] = 600
	b.Update([]uint32{0})
	cur[0] = 601
	b.Update([]uint32{0})
	count := 0
	var lastBkt uint32
	for {
		bkt, ids := b.NextBucket()
		if bkt == Nil {
			break
		}
		count += len(ids)
		lastBkt = bkt
	}
	if count != 1 || lastBkt != 601 {
		t.Fatalf("extracted %d ids, last bucket %d; want 1 id at 601", count, lastBkt)
	}
}

func TestOverflowWindowAdvance(t *testing.T) {
	// Buckets far beyond the open window force overflow handling.
	n := 1000
	b := New(sched, n, 8, Increasing, uint32(n), func(i uint32) uint32 { return i })
	prev := -1
	count := 0
	for {
		bkt, ids := b.NextBucket()
		if bkt == Nil {
			break
		}
		if int(bkt) <= prev {
			t.Fatalf("buckets out of order: %d after %d", bkt, prev)
		}
		prev = int(bkt)
		count += len(ids)
	}
	if count != n {
		t.Fatalf("extracted %d of %d", count, n)
	}
}

func TestDecreasingOrder(t *testing.T) {
	vals := []uint32{3, 9, 0, 9, 5}
	b := New(sched, len(vals), 4, Decreasing, 9, func(i uint32) uint32 { return vals[i] })
	var buckets []uint32
	var idCount int
	for {
		bkt, ids := b.NextBucket()
		if bkt == Nil {
			break
		}
		buckets = append(buckets, bkt)
		idCount += len(ids)
	}
	if !slices.Equal(buckets, []uint32{9, 5, 3, 0}) {
		t.Fatalf("decreasing bucket order = %v", buckets)
	}
	if idCount != 5 {
		t.Fatalf("extracted %d ids", idCount)
	}
}

func TestMonotoneClampIntoCurrentBucket(t *testing.T) {
	// Updating an identifier to a bucket at or before the processing point
	// refiles it into the bucket currently being processed (Julienne's
	// contract: k-core clamps decremented degrees to the current core and
	// re-extracts them at the same bucket).
	cur := []uint32{3, 10}
	b := New(sched, 2, 4, Increasing, 100, func(i uint32) uint32 { return cur[i] })
	bkt, ids := b.NextBucket()
	if bkt != 3 || len(ids) != 1 || ids[0] != 0 {
		t.Fatalf("first bucket %d ids %v", bkt, ids)
	}
	cur[1] = 1 // behind the processing point
	b.Update([]uint32{1})
	bkt, ids = b.NextBucket()
	if bkt != 3 || len(ids) != 1 || ids[0] != 1 {
		t.Fatalf("clamped extraction: bucket %d ids %v, want bucket 3 id 1", bkt, ids)
	}
}

func TestEmptyStructure(t *testing.T) {
	b := New(sched, 0, 0, Increasing, 0, func(i uint32) uint32 { return 0 })
	if bkt, ids := b.NextBucket(); bkt != Nil || ids != nil {
		t.Fatal("empty structure returned a bucket")
	}
}

func TestMoveAwayAndBackExtractsOnce(t *testing.T) {
	// Moving an id out of a bucket and back leaves two copies filed there
	// (the first is stale only in between); it must come out once.
	cur := []uint32{3}
	b := New(sched, 1, 8, Increasing, 100, func(i uint32) uint32 { return cur[i] })
	cur[0] = 5
	b.Update([]uint32{0})
	cur[0] = 3
	b.Update([]uint32{0})
	bkt, ids := b.NextBucket()
	if bkt != 3 || !slices.Equal(ids, []uint32{0}) {
		t.Fatalf("bucket %d ids %v, want bucket 3 ids [0]", bkt, ids)
	}
	if bkt, ids := b.NextBucket(); bkt != Nil {
		t.Fatalf("id extracted again: bucket %d ids %v", bkt, ids)
	}
}

func TestBucketKeepsFilingOrder(t *testing.T) {
	// New files ids in increasing order; each Update appends its batch in
	// the order given.
	cur := []uint32{2, 2, 2, 2, 2, 2}
	b := New(sched, len(cur), 4, Increasing, 10, func(i uint32) uint32 { return cur[i] })
	for _, id := range []uint32{4, 0, 2} {
		cur[id] = 1
	}
	b.Update([]uint32{4, 0, 2})
	cur[5] = 1
	b.Update([]uint32{5})
	if bkt, ids := b.NextBucket(); bkt != 1 || !slices.Equal(ids, []uint32{4, 0, 2, 5}) {
		t.Fatalf("bucket %d ids %v, want bucket 1 ids [4 0 2 5]", bkt, ids)
	}
	if bkt, ids := b.NextBucket(); bkt != 2 || !slices.Equal(ids, []uint32{1, 3}) {
		t.Fatalf("bucket %d ids %v, want bucket 2 ids [1 3]", bkt, ids)
	}
}
