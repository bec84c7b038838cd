// Directed web-crawl analysis: the bow-tie structure of the web (Broder et
// al., cited by the paper's SCC section: "many directed real-world graphs
// have a single massive strongly connected component") — SCC decomposition,
// reachability from the giant component, and the approximate-vs-exact
// k-core comparison of Table 7.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"time"

	"repro/gbbs"
)

func main() {
	scale := flag.Int("scale", 16, "log2 of vertex count")
	flag.Parse()

	eng := gbbs.New(gbbs.WithSeed(1))
	ctx := context.Background()
	g, err := eng.BuildCSR(ctx, gbbs.RMAT(*scale, 16, 2014)) // directed crawl
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("crawl: n=%d directed edges=%d\n", g.N(), g.M())

	// run dispatches an algorithm by registry name on gr.
	run := func(name string, gr gbbs.Graph, src uint32) gbbs.Result {
		res, err := eng.Run(ctx, name, gbbs.Request{Graph: gr, Source: src})
		if err != nil {
			log.Fatal(err)
		}
		return res
	}

	// 1. Bow-tie core: the giant SCC.
	scc := run("scc", g, 0)
	labels := scc.Value.([]uint32)
	num, largest := gbbs.ComponentCount(labels)
	fmt.Printf("SCC:  %d components, giant SCC has %d vertices (%.1f%%) [%v]\n",
		num, largest, 100*float64(largest)/float64(g.N()), scc.Elapsed.Round(time.Millisecond))

	// 2. IN/OUT sets: forward and backward reachability from a giant-SCC
	// member splits the crawl into the bow-tie regions.
	counts := map[uint32]int{}
	for _, l := range labels {
		counts[l]++
	}
	var giant uint32
	for l, c := range counts {
		if c == largest {
			giant = l
		}
	}
	var pivot uint32
	for v, l := range labels {
		if l == giant {
			pivot = uint32(v)
			break
		}
	}
	reachOut := 0
	for _, d := range run("bfs", g, pivot).Value.([]uint32) {
		if d != gbbs.Inf {
			reachOut++
		}
	}
	fmt.Printf("OUT:  %d vertices reachable from the giant SCC (core+out)\n", reachOut)

	// 3. Exact vs. approximate coreness on the symmetrized crawl (Table 7's
	// comparison against Slota et al.'s approximate k-core).
	sg, err := eng.BuildCSR(ctx, gbbs.RMAT(*scale, 16, 2014), gbbs.Symmetrize())
	if err != nil {
		log.Fatal(err)
	}
	kcore, approxkcore := run("kcore", sg, 0), run("approxkcore", sg, 0)
	exact, approx := kcore.Value.([]uint32), approxkcore.Value.([]uint32)
	worst := 0.0
	for v := range exact {
		if exact[v] > 0 {
			r := float64(approx[v]) / float64(exact[v])
			if r > worst {
				worst = r
			}
		}
	}
	fmt.Printf("core: exact %s [%v]; approx [%v], max overestimate %.2fx (bound: 2x)\n",
		kcore.Summary, kcore.Elapsed.Round(time.Millisecond), approxkcore.Elapsed.Round(time.Millisecond), worst)
}
