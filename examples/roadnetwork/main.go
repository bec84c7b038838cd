// Road-network-style workloads: high-diameter weighted graphs are where the
// paper's diameter-bounded algorithms (wBFS, Bellman-Ford) and MSF earn
// their bounds. A 3D torus reproduces that regime (paper §6, "Performance
// on 3D-Torus"): wBFS's bucketing beats Bellman-Ford's O(n^{4/3}) work on
// this family.
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
	side := flag.Int("side", 40, "torus side (n = side^3)")
	flag.Parse()

	eng := gbbs.New(gbbs.WithSeed(3))
	ctx := context.Background()
	g, err := eng.BuildCSR(ctx, gbbs.Torus(*side), gbbs.Symmetrize(), gbbs.PaperWeights(9))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("torus: n=%d m=%d, weights in [1, log n)\n", g.N(), g.M())

	// run dispatches an algorithm by registry name from source vertex 0.
	run := func(name string) gbbs.Result {
		res, err := eng.Run(ctx, name, gbbs.Request{Graph: g, Source: 0})
		if err != nil {
			log.Fatal(err)
		}
		return res
	}

	wbfs := run("wbfs")
	bf := run("bellmanford")
	dw, db := wbfs.Value.([]uint32), bf.Value.([]int64)
	for v := range dw {
		if db[v] == gbbs.NegInfDist {
			log.Fatal("positive-weight torus reported a negative cycle")
		}
		if int64(dw[v]) != db[v] {
			log.Fatalf("wBFS and Bellman-Ford disagree at %d", v)
		}
	}
	var far uint32
	for v := range dw {
		if dw[v] != gbbs.Inf && dw[v] > dw[far] {
			far = uint32(v)
		}
	}
	fmt.Printf("wBFS:         %-10v (weighted eccentricity %d)\n", wbfs.Elapsed.Round(time.Millisecond), dw[far])
	fmt.Printf("Bellman-Ford: %-10v (agrees with wBFS; paper: ~7x slower on torus)\n", bf.Elapsed.Round(time.Millisecond))
	fmt.Printf("wBFS speedup over Bellman-Ford: %.1fx\n", float64(bf.Elapsed)/float64(wbfs.Elapsed))

	msf := run("msf")
	fmt.Printf("MSF:          %-10v %s\n", msf.Elapsed.Round(time.Millisecond), msf.Summary)

	forest := run("spanforest")
	fmt.Printf("BFS forest:   %-10v %s\n", forest.Elapsed.Round(time.Millisecond), forest.Summary)
}
