package ligra

import (
	"testing"

	"repro/internal/compress"
	"repro/internal/gen"
)

// EdgeMap must behave identically over the compressed representation,
// including the blocked sparse path that uses OutRange to split high-degree
// compressed vertices across logical blocks.

func TestEdgeMapModesAgreeOnCompressed(t *testing.T) {
	csr := gen.BuildRMAT(sched, 10, 10, true, false, 21)
	cg := compress.FromCSR(sched, csr, 16) // small blocks exercise multi-block vertices
	base := bfsLevels(csr, 0, edgeMapFlat, Opts{})
	for name, m := range map[string]struct {
		em  edgeMapFunc
		opt Opts
	}{
		"blocked": {EdgeMap, Opts{NoDense: true}},
		"flat":    {edgeMapFlat, Opts{}},
		"auto":    {EdgeMap, Opts{}},
		"dense":   {edgeMapDense, Opts{}},
	} {
		got := bfsLevels(cg, 0, m.em, m.opt)
		for v := range base {
			if got[v] != base[v] {
				t.Fatalf("%s on compressed: level[%d] = %d want %d", name, v, got[v], base[v])
			}
		}
	}
}

func TestTrafficCounterShrinksWithBlocked(t *testing.T) {
	csr := gen.BuildRMAT(sched, 12, 10, true, true, 22)
	run := func(em edgeMapFunc, opt Opts) int64 {
		Traffic.Store(0)
		bfsLevels(csr, 0, em, opt)
		return Traffic.Load()
	}
	flat := run(edgeMapFlat, Opts{})
	blocked := run(EdgeMap, Opts{NoDense: true})
	if flat == 0 || blocked == 0 {
		t.Fatalf("counters not recording: flat=%d blocked=%d", flat, blocked)
	}
	// Flat writes one word per examined edge; blocked writes only live
	// destinations, which is strictly fewer on a BFS (each vertex acquired
	// once).
	if blocked >= flat {
		t.Fatalf("blocked wrote %d words, flat %d; expected fewer", blocked, flat)
	}
}
