// Package hashtable implements the concurrent linear-probing hash table the
// paper's SCC algorithm uses to store reachability sets (§5, "Techniques for
// overlapping searches"): (vertex, center) pairs are hashed *by vertex only*,
// so all pairs of one vertex lie on the same probe sequence. That makes
// enumerating a vertex's centers a single linear probe, and keeps multiple
// pairs of one vertex in the same cache lines. Insertions are lock-free
// CAS; the table never deletes, and it is grown between rounds (never
// concurrently with operations) after upper-bounding the round's insertions.
package hashtable

import (
	"sync/atomic"

	"repro/internal/parallel"
	"repro/internal/xrand"
)

const empty = ^uint64(0)

// Table stores a set of (vertex, label) pairs, both uint32. The pair
// (^0, ^0) is reserved.
type Table struct {
	sched *parallel.Scheduler
	slots []uint64
	mask  uint64
	count atomic.Int64
}

// New returns a table with capacity for at least capacity pairs at a load
// factor of at most 3/4. Parallel maintenance (clearing, rehashing) runs on
// scheduler s.
func New(s *parallel.Scheduler, capacity int) *Table {
	size := 16
	for size*3/4 < capacity {
		size <<= 1
	}
	t := &Table{sched: s, slots: make([]uint64, size), mask: uint64(size - 1)}
	clearSlots(s, t.slots)
	return t
}

func clearSlots(sched *parallel.Scheduler, s []uint64) {
	sched.ForRange(len(s), 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			s[i] = empty
		}
	})
}

func pack(v, label uint32) uint64 { return uint64(v)<<32 | uint64(label) }

func (t *Table) home(v uint32) uint64 {
	return xrand.Hash64(0x5bd1e9955bd1e995, uint64(v)) & t.mask
}

// Len returns the number of pairs currently stored.
func (t *Table) Len() int { return int(t.count.Load()) }

// Insert adds the pair (v, label), returning true if it was not already
// present. Safe for concurrent use with other Inserts and reads.
func (t *Table) Insert(v, label uint32) bool {
	key := pack(v, label)
	i := t.home(v)
	for {
		cur := atomic.LoadUint64(&t.slots[i])
		if cur == key {
			return false
		}
		if cur == empty {
			if atomic.CompareAndSwapUint64(&t.slots[i], empty, key) {
				t.count.Add(1)
				return true
			}
			continue // lost the race; re-read this slot
		}
		i = (i + 1) & t.mask
	}
}

// Contains reports whether the pair (v, label) is present.
func (t *Table) Contains(v, label uint32) bool {
	key := pack(v, label)
	for i := t.home(v); ; i = (i + 1) & t.mask {
		cur := atomic.LoadUint64(&t.slots[i])
		if cur == key {
			return true
		}
		if cur == empty {
			return false
		}
	}
}

// ForEachOf calls f for each label stored with vertex v, stopping if f
// returns false. With vertex-only hashing this is a single probe run ending
// at the first empty slot. Concurrent insertions may or may not be seen.
func (t *Table) ForEachOf(v uint32, f func(label uint32) bool) {
	for i := t.home(v); ; i = (i + 1) & t.mask {
		cur := atomic.LoadUint64(&t.slots[i])
		if cur == empty {
			return
		}
		if uint32(cur>>32) == v {
			if !f(uint32(cur)) {
				return
			}
		}
	}
}

// CountOf returns the number of labels stored with v.
func (t *Table) CountOf(v uint32) int {
	c := 0
	t.ForEachOf(v, func(uint32) bool { c++; return true })
	return c
}

// Reserve ensures the table can absorb `extra` additional pairs without
// exceeding its load factor, growing and rehashing if needed. It must not
// run concurrently with any other operation; SCC calls it between rounds
// after upper-bounding the round's insertions.
func (t *Table) Reserve(extra int) {
	need := t.Len() + extra
	if need <= len(t.slots)*3/4 {
		return
	}
	size := len(t.slots)
	for size*3/4 < need {
		size <<= 1
	}
	old := t.slots
	t.slots = make([]uint64, size)
	t.mask = uint64(size - 1)
	clearSlots(t.sched, t.slots)
	t.count.Store(0)
	t.sched.ForRange(len(old), 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if old[i] != empty {
				t.Insert(uint32(old[i]>>32), uint32(old[i]))
			}
		}
	})
}

// Entries returns all stored pairs as (vertex, label) tuples packed
// v<<32|label, in unspecified order.
func (t *Table) Entries() []uint64 {
	out := make([]uint64, 0, t.Len())
	for _, s := range t.slots {
		if s != empty {
			out = append(out, s)
		}
	}
	return out
}
