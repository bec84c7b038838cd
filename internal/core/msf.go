package core

import (
	"sync/atomic"

	"repro/internal/atomics"
	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/prims"
)

// MSF computes a minimum spanning forest (Algorithm 9: Borůvka with
// pointer-jumping, plus the paper's filtering optimization) in O(m log n)
// work and O(log² n) depth on the PW-MT-RAM. Ties are broken by edge index,
// so the forest is deterministic. Returns the forest edges and their total
// weight.
//
// g must be symmetric and weighted with non-negative weights (the paper
// draws them from [1, log n)).
//
// Rather than materializing all of CSR into an edgelist at once, a constant
// number of filtering steps each solve an approximate k'th-smallest problem
// to extract the lightest ~3n/2 remaining edges, run Borůvka on that subset,
// and pack out edges whose endpoints were contracted into one component —
// the structure that lets the paper solve MSF on graphs whose full edgelist
// would not fit in memory.
func MSF(s *parallel.Scheduler, g graph.Graph) ([]WEdge, int64) {
	n := g.N()
	// One direction per undirected edge: the memory optimization the paper
	// applies to make edgelist algorithms fit ("we can pack out the edges
	// so that each undirected edge is only inspected once").
	eu, ev, ew := extractEdges(s, g, true)
	m := len(eu)
	ids := make([]uint32, m)
	s.ForRange(m, 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ids[i] = uint32(i)
		}
	})
	parents := make([]uint32, n)
	s.ForRange(n, 0, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			parents[v] = uint32(v)
		}
	})
	st := &msfState{
		sched: s,
		eu:    eu, ev: ev, ew: ew,
		parents:  parents,
		minEdge:  newFilled64(s, n),
		inForest: make([]uint32, (m+31)/32),
	}
	// Filtering steps: peel off the lightest ~3n/2 edges, Borůvka them,
	// drop newly intra-component edges from the rest.
	const filterRounds = 3
	target := 3 * n / 2
	for r := 0; r < filterRounds && len(ids) > 2*target; r++ {
		pivot := prims.ApproxThreshold(s, weightKeys(s, st, ids), target, uint64(0x9e37+r))
		prefix := prims.Filter(s, ids, func(id uint32) bool { return weightKey(st, id) <= pivot })
		rest := prims.Filter(s, ids, func(id uint32) bool { return weightKey(st, id) > pivot })
		st.boruvka(prefix)
		// Pack out edges now inside one component.
		st.relabel(rest)
		ids = prims.Filter(s, rest, func(id uint32) bool { return st.eu[id] != st.ev[id] })
	}
	st.boruvka(ids)

	forest := make([]WEdge, 0, len(st.forestIDs))
	var total int64
	for _, id := range st.forestIDs {
		forest = append(forest, WEdge{U: st.origU[id], V: st.origV[id], W: ew[id]})
		total += int64(ew[id])
	}
	return forest, total
}

type msfState struct {
	sched     *parallel.Scheduler
	eu, ev    []uint32 // current endpoints (relabeled to component roots)
	ew        []int32
	origU     []uint32 // original endpoints for output
	origV     []uint32
	parents   []uint32
	minEdge   []uint64 // per-vertex priority-write cell: (weight << 32) | edge id
	inForest  []uint32 // bitset over edge ids
	forestIDs []uint32
}

// weightKey orders edges by (weight, id), making all comparisons strict.
func weightKey(st *msfState, id uint32) uint64 {
	return uint64(uint32(st.ew[id]))<<32 | uint64(id)
}

func weightKeys(s *parallel.Scheduler, st *msfState, ids []uint32) []uint64 {
	keys := make([]uint64, len(ids))
	s.ForRange(len(ids), 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			keys[i] = weightKey(st, ids[i])
		}
	})
	return keys
}

func newFilled64(s *parallel.Scheduler, n int) []uint64 {
	a := make([]uint64, n)
	s.ForRange(n, 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			a[i] = ^uint64(0)
		}
	})
	return a
}

// boruvka runs Borůvka rounds over the given edge ids until they are
// exhausted, contracting components via the shared parents array and
// recording forest edges.
func (st *msfState) boruvka(ids []uint32) {
	if st.origU == nil {
		st.origU = append([]uint32(nil), st.eu...)
		st.origV = append([]uint32(nil), st.ev...)
	}
	st.relabel(ids)
	ids = prims.Filter(st.sched, ids, func(id uint32) bool { return st.eu[id] != st.ev[id] })
	for len(ids) > 0 {
		st.sched.Poll()
		// Each component root priority-writes its minimum incident edge.
		st.sched.ForRange(len(ids), 512, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				id := ids[i]
				key := weightKey(st, id)
				atomics.WriteMinU64(&st.minEdge[st.eu[id]], key)
				atomics.WriteMinU64(&st.minEdge[st.ev[id]], key)
			}
		})
		// Edges that won at either endpoint join the forest and hook
		// components together. Each vertex has a unique winning edge, so
		// each parents cell has one writer; stores are atomic only to pair
		// with the concurrent reads elsewhere.
		st.sched.ForRange(len(ids), 512, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				id := ids[i]
				u, v := st.eu[id], st.ev[id]
				if uint32(st.minEdge[u]) == id {
					atomics.Store32(&st.parents[u], v)
				}
				if uint32(st.minEdge[v]) == id {
					atomics.Store32(&st.parents[v], u)
				}
			}
		})
		// Break the 2-cycles formed by mutual minimum edges: the higher
		// endpoint becomes the root.
		st.sched.ForRange(len(ids), 512, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				id := ids[i]
				u, v := st.eu[id], st.ev[id]
				if uint32(st.minEdge[u]) == id &&
					atomics.Load32(&st.parents[v]) == u && atomics.Load32(&st.parents[u]) == v {
					top := u
					if v > u {
						top = v
					}
					atomics.Store32(&st.parents[top], top)
				}
			}
		})
		// Collect winners exactly once (an edge can win at both endpoints).
		winners := prims.MapFilter(st.sched, len(ids),
			func(i int) bool {
				id := ids[i]
				return uint32(st.minEdge[st.eu[id]]) == id || uint32(st.minEdge[st.ev[id]]) == id
			},
			func(i int) uint32 { return ids[i] })
		for _, id := range winners {
			if atomics.TestAndSetBit(st.inForest, int(id)) {
				st.forestIDs = append(st.forestIDs, id)
			}
		}
		// Reset priority cells for the endpoints touched this round, then
		// shortcut parents and relabel. Endpoints are shared between edges,
		// so the same-value stores must be atomic.
		st.sched.ForRange(len(ids), 512, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				id := ids[i]
				atomic.StoreUint64(&st.minEdge[st.eu[id]], ^uint64(0))
				atomic.StoreUint64(&st.minEdge[st.ev[id]], ^uint64(0))
			}
		})
		st.pointerJump(ids)
		st.relabel(ids)
		ids = prims.Filter(st.sched, ids, func(id uint32) bool { return st.eu[id] != st.ev[id] })
	}
}

// pointerJump shortcuts the parents of all endpoints of ids to their roots.
// Parents only ever move toward roots, so concurrent jumping is safe under
// atomic accesses regardless of interleaving.
func (st *msfState) pointerJump(ids []uint32) {
	for {
		st.sched.Poll()
		changed := prims.MapReduce(st.sched, len(ids), 0, func(i int) int {
			id := ids[i]
			c := 0
			for _, v := range [2]uint32{st.eu[id], st.ev[id]} {
				p := atomics.Load32(&st.parents[v])
				if gp := atomics.Load32(&st.parents[p]); gp != p {
					atomics.Store32(&st.parents[v], gp)
					c = 1
				}
			}
			return c
		}, func(a, b int) int { return a + b })
		if changed == 0 {
			return
		}
	}
}

// relabel rewrites edge endpoints to their component roots.
func (st *msfState) relabel(ids []uint32) {
	st.sched.ForRange(len(ids), 512, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			id := ids[i]
			st.eu[id] = st.root(st.eu[id])
			st.ev[id] = st.root(st.ev[id])
		}
	})
}

// root follows parent pointers to the component root (reads only; safe to
// call concurrently because parents only ever move toward roots).
func (st *msfState) root(v uint32) uint32 {
	for {
		p := atomics.Load32(&st.parents[v])
		if p == v {
			return v
		}
		v = p
	}
}
