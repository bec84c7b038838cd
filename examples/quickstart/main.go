// Quickstart: build a small power-law graph, run a few algorithms through an
// Engine, print results. This is the smallest end-to-end use of the public
// API: every algorithm runs through Engine.Run, by registry name.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/gbbs"
)

func main() {
	// An Engine owns its own scheduler: concurrent engines with different
	// thread counts never interfere, and every call takes a context.
	eng := gbbs.New(gbbs.WithSeed(1))
	ctx := context.Background()

	// A symmetrized RMAT graph with 2^14 vertices and ~16 edges/vertex —
	// the same family the paper uses to stand in for social networks.
	// Engine.Build runs the generator and the CSR construction on the
	// engine's own scheduler.
	g, err := eng.BuildCSR(ctx, gbbs.RMAT(14, 16, 42), gbbs.Symmetrize())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("graph: n=%d m=%d (directed edge count)\n", g.N(), g.M())

	// run dispatches an algorithm by name through the registry. The Result
	// carries a ready-made summary, the raw output in Value (its type per
	// algorithm is documented on gbbs.Result) and the effective seed. Opts
	// are validated against the algorithm's typed parameter schema (see
	// `gbbs-run -describe cc`): a typo'd name or out-of-range value is an
	// error, not a silent default.
	run := func(name string, opts map[string]any) gbbs.Result {
		res, err := eng.Run(ctx, name, gbbs.Request{Graph: g, Source: 0, Opts: opts})
		if err != nil {
			log.Fatal(err)
		}
		return res
	}

	// Breadth-first search from vertex 0.
	reached, maxd := 0, uint32(0)
	for _, d := range run("bfs", nil).Value.([]uint32) {
		if d != gbbs.Inf {
			reached++
			if d > maxd {
				maxd = d
			}
		}
	}
	fmt.Printf("BFS:  reached %d vertices, eccentricity %d\n", reached, maxd)

	// Connected components.
	res := run("cc", map[string]any{"beta": 0.2})
	fmt.Printf("CC:   %s (in %v, seed %d)\n", res.Summary, res.Elapsed, res.Seed)

	// Triangle counting.
	fmt.Printf("TC:   %d triangles\n", run("tc", nil).Value.(int64))

	// k-core decomposition: the peeling-round count rho is reported in the
	// summary, next to the degeneracy kmax.
	fmt.Printf("core: %s\n", run("kcore", nil).Summary)
}
