// Package bucket implements Julienne's bucketing structure (Dhulipala,
// Blelloch, Shun, SPAA 2017), the substrate under the paper's wBFS, k-core
// and approximate set cover implementations. It maintains a dynamic mapping
// from identifiers to buckets, supports extracting the next non-empty bucket
// in priority order, and moves identifiers between buckets in bulk.
//
// The structure is lazy: bucket arrays may hold stale entries (an identifier
// that has since moved); staleness is detected on extraction by comparing
// against the identifier's current bucket. A bounded window of "open"
// buckets is materialized; identifiers destined further away wait in an
// overflow bucket that is re-bucketed when the window advances past it.
//
// Costs: filing k identifiers (Update) is one sequential O(k) pass that
// appends each to its bucket, and extracting a bucket of k entries is one
// sequential O(k) pass that drops the stale ones. Julienne groups a batch by
// bucket with a parallel semisort instead, which has O(log k) depth; the
// sequential passes trade that depth for no sort and no copies. Within a
// bucket, identifiers come out in the order they were filed, and each is
// returned at most once per filing.
package bucket

import (
	"repro/internal/parallel"
	"repro/internal/prims"
)

// Nil marks "no bucket": identifiers mapped to Nil by the bucket function
// are not tracked (e.g. unreached vertices in wBFS, peeled vertices in
// k-core).
const Nil = ^uint32(0)

// Order selects processing order.
type Order int

const (
	// Increasing processes bucket 0, 1, 2, ... (wBFS, k-core).
	Increasing Order = iota
	// Decreasing processes the largest bucket first (set cover).
	Decreasing
)

// Buckets is the bucketing structure over identifiers [0, n).
type Buckets struct {
	order    Order
	maxBkt   uint32 // inclusive bound on bucket IDs (used for Decreasing)
	numOpen  int
	fn       func(uint32) uint32 // current desired bucket of an identifier
	cur      []uint32            // tick of the bucket each id was last filed under (Nil = removed)
	open     [][]uint32          // open[j] holds ids filed at tick base+j
	overflow []uint32
	base     uint32 // tick of open[0]
	iter     int    // next open slot to inspect
}

// New builds the structure over n identifiers on scheduler s with the given
// processing order and bucket function fn (fn(i) == Nil files identifier i nowhere).
// maxBkt is an inclusive upper bound on bucket IDs fn can return; it is
// required for Decreasing order and advisory otherwise. numOpen <= 0 selects
// the default window of 128 open buckets. The identifiers are filed in
// increasing order.
func New(s *parallel.Scheduler, n int, numOpen int, order Order, maxBkt uint32, fn func(uint32) uint32) *Buckets {
	if numOpen <= 0 {
		numOpen = 128
	}
	b := &Buckets{
		order:   order,
		maxBkt:  maxBkt,
		numOpen: numOpen,
		fn:      fn,
		cur:     make([]uint32, n),
		open:    make([][]uint32, numOpen),
	}
	for i := range b.cur {
		b.cur[i] = Nil
	}
	b.Update(prims.PackIndex(s, n, func(i int) bool { return fn(uint32(i)) != Nil }))
	return b
}

// tick maps a bucket ID to the monotone processing order: identity for
// Increasing, reversed against maxBkt for Decreasing.
func (b *Buckets) tick(bkt uint32) uint32 {
	if b.order == Increasing {
		return bkt
	}
	if bkt > b.maxBkt {
		bkt = b.maxBkt
	}
	return b.maxBkt - bkt
}

// bucketOf converts a tick back to the caller's bucket ID.
func (b *Buckets) bucketOf(tick uint32) uint32 {
	if b.order == Increasing {
		return tick
	}
	return b.maxBkt - tick
}

// NextBucket extracts the next non-empty bucket in processing order,
// returning its bucket ID and member identifiers in filing order; extracted
// identifiers are removed from the structure. It returns (Nil, nil) when no
// identifiers remain. The returned slice is the caller's. Extraction is one
// O(k) pass over the bucket's k filed entries: an identifier filed into the
// same bucket twice (moved away and back) comes out once, at its first copy.
//
// The processing pointer does not advance past a bucket until the bucket is
// verified empty: identifiers refiled into the bucket being processed (e.g.
// k-core vertices whose degree is clamped to the current core number) are
// extracted by subsequent NextBucket calls at the same bucket ID, matching
// Julienne's semantics.
func (b *Buckets) NextBucket() (uint32, []uint32) {
	for {
		for b.iter < b.numOpen {
			entries := b.open[b.iter]
			b.open[b.iter] = nil
			if len(entries) == 0 {
				b.iter++
				continue
			}
			tick := b.base + uint32(b.iter)
			live := entries[:0]
			for _, id := range entries {
				if b.cur[id] == tick {
					b.cur[id] = Nil // later copies of id are now stale
					live = append(live, id)
				}
			}
			if len(live) > 0 {
				return b.bucketOf(tick), live
			}
			// Slot drained of live entries; recheck before advancing.
		}
		// Window exhausted: advance it over the overflow bucket.
		if len(b.overflow) == 0 {
			return Nil, nil
		}
		b.base += uint32(b.numOpen)
		b.iter = 0
		// Re-file only identifiers still claiming an overflow tick; mark
		// them unfiled first so Update does not skip them (their only live
		// copy was just pulled out of the overflow array). Duplicate copies
		// of one id collapse here: the first is kept and marks it Nil, so
		// the second is dropped.
		pending := b.overflow
		b.overflow = nil
		keep := pending[:0]
		for _, id := range pending {
			if b.cur[id] != Nil && b.cur[id] >= b.base {
				b.cur[id] = Nil
				keep = append(keep, id)
			}
		}
		b.Update(keep)
	}
}

// Update re-files the given identifiers according to the current bucket
// function (the paper's UpdateBuckets) in one sequential O(len(ids)) pass.
// Identifiers whose function now returns Nil are removed; identifiers
// extracted earlier stay removed unless the function maps them to a bucket
// again. A bucket before the processing pointer is clamped to the bucket
// being processed, preserving the monotone processing contract, and an id
// already filed at its destination is not filed again.
func (b *Buckets) Update(ids []uint32) {
	first := b.base + uint32(b.iter)
	for _, id := range ids {
		bkt := b.fn(id)
		if bkt == Nil {
			b.cur[id] = Nil // invalidate any filed copy
			continue
		}
		t := max(b.tick(bkt), first)
		if b.cur[id] == t {
			continue // already filed at this tick
		}
		b.cur[id] = t
		if slot := int(t - b.base); slot < b.numOpen {
			b.open[slot] = append(b.open[slot], id)
		} else {
			b.overflow = append(b.overflow, id)
		}
	}
}
