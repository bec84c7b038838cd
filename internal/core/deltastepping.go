package core

import (
	"sync/atomic"

	"repro/internal/atomics"
	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/prims"
)

// DeltaStepping solves positive-integer-weight SSSP with the Meyer-Sanders
// Δ-stepping algorithm — the GAP-benchmark comparator the paper measures
// wBFS against (§6: wBFS is "between 1.07–1.1x slower than the Δ-stepping
// implementation from GAP"). Vertices live in buckets of width delta;
// each bucket is relaxed to a fixed point over light edges (w <= delta),
// then the settled vertices' heavy edges are relaxed once.
//
// delta <= 0 selects the average edge weight, a standard heuristic.
func DeltaStepping(s *parallel.Scheduler, g graph.Graph, src uint32, delta int32) []uint32 {
	n := g.N()
	dist := make([]uint32, n)
	for i := range dist {
		dist[i] = Inf
	}
	if n == 0 {
		return dist
	}
	if delta <= 0 {
		delta = averageWeight(s, g)
	}
	dist[src] = 0
	width := uint32(delta)
	bucketOf := func(v uint32) uint32 {
		d := atomics.Load32(&dist[v])
		if d == Inf {
			return Inf
		}
		return d / width
	}
	var buckets [][]uint32
	insert := func(v uint32) {
		b := bucketOf(v)
		for int(b) >= len(buckets) {
			buckets = append(buckets, nil)
		}
		buckets[b] = append(buckets[b], v)
	}
	insert(src)

	// relax applies one edge-relaxation sweep from frontier over edges
	// selected by light, returning the vertices whose distance improved.
	flags := make([]uint32, n)
	relax := func(frontier []uint32, light bool) []uint32 {
		moved := make([]uint32, 0, len(frontier))
		var cnt atomic.Int64
		out := make([]uint32, upperDeg(s, g, frontier))
		s.ForRange(len(frontier), 16, func(lo, hi int) {
			var du uint32
			visit := func(v uint32, w int32) bool {
				if (uint32(w) <= width) != light {
					return true
				}
				if atomics.WriteMin32(&dist[v], du+uint32(w)) {
					if atomics.TestAndSet(&flags[v]) {
						out[cnt.Add(1)-1] = v
					}
				}
				return true
			}
			for i := lo; i < hi; i++ {
				du = atomics.Load32(&dist[frontier[i]])
				g.OutNgh(frontier[i], visit)
			}
		})
		moved = append(moved, out[:cnt.Load()]...)
		for _, v := range moved {
			atomics.Store32(&flags[v], 0)
		}
		return moved
	}

	for b := 0; b < len(buckets); b++ {
		s.Poll()
		var settled []uint32
		for len(buckets[b]) > 0 {
			s.Poll()
			frontier := prims.Filter(s, buckets[b], func(v uint32) bool { return bucketOf(v) == uint32(b) })
			buckets[b] = buckets[b][:0]
			if len(frontier) == 0 {
				break
			}
			settled = append(settled, frontier...)
			for _, v := range relax(frontier, true) {
				insert(v)
			}
		}
		for _, v := range relax(settled, false) {
			insert(v)
		}
	}
	return dist
}

func averageWeight(s *parallel.Scheduler, g graph.Graph) int32 {
	n := g.N()
	sum := prims.MapReduce(s, n, int64(0), func(v int) int64 {
		var s int64
		g.OutNgh(uint32(v), func(_ uint32, w int32) bool {
			s += int64(w)
			return true
		})
		return s
	}, func(a, b int64) int64 { return a + b })
	if g.M() == 0 {
		return 1
	}
	d := int32(sum / int64(g.M()))
	if d < 1 {
		d = 1
	}
	return d
}

func upperDeg(s *parallel.Scheduler, g graph.Graph, ids []uint32) int {
	return prims.MapReduce(s, len(ids), 0,
		func(i int) int { return g.OutDeg(ids[i]) },
		func(a, b int) int { return a + b })
}
