// Social-network analysis pipeline: the workloads the paper's introduction
// motivates — influence (betweenness), community cores (k-core), cohesion
// (triangles / clustering coefficient), and scheduling (coloring) — run over
// one power-law graph.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"sort"
	"time"

	"repro/gbbs"
)

func main() {
	scale := flag.Int("scale", 16, "log2 of vertex count")
	factor := flag.Int("factor", 16, "edges per vertex")
	flag.Parse()

	eng := gbbs.New(gbbs.WithSeed(3))
	ctx := context.Background()

	start := time.Now()
	g, err := eng.BuildCSR(ctx, gbbs.RMAT(*scale, *factor, 7), gbbs.Symmetrize())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("network: n=%d m=%d (built in %v)\n", g.N(), g.M(), time.Since(start).Round(time.Millisecond))

	// run dispatches an algorithm by registry name (src is read only by
	// source-based algorithms such as bc).
	run := func(name string, src uint32) gbbs.Result {
		res, err := eng.Run(ctx, name, gbbs.Request{Graph: g, Source: src})
		if err != nil {
			log.Fatal(err)
		}
		return res
	}

	// 1. Degeneracy ordering: the k-core decomposition finds the densest
	// community cores.
	kcore := run("kcore", 0)
	coreness := kcore.Value.([]uint32)
	kmax := gbbs.Degeneracy(coreness)
	inMax := 0
	for _, c := range coreness {
		if int(c) == kmax {
			inMax++
		}
	}
	fmt.Printf("k-core: %s, %d members in the kmax-core\n", kcore.Summary, inMax)

	// 2. Influence: betweenness centrality from the highest-coreness seed.
	seed := uint32(0)
	for v := range coreness {
		if coreness[v] > coreness[seed] {
			seed = uint32(v)
		}
	}
	type vc struct {
		v uint32
		c float64
	}
	top := make([]vc, 0, g.N())
	for v, c := range run("bc", seed).Value.([]float64) {
		top = append(top, vc{uint32(v), c})
	}
	sort.Slice(top, func(i, j int) bool { return top[i].c > top[j].c })
	fmt.Printf("BC from %d: top brokers:", seed)
	for _, t := range top[:3] {
		fmt.Printf(" v%d(%.0f)", t.v, t.c)
	}
	fmt.Println()

	// 3. Cohesion: global clustering coefficient from triangle and wedge
	// counts.
	tri := run("tc", 0).Value.(int64)
	var wedges int64
	for v := 0; v < g.N(); v++ {
		d := int64(g.OutDeg(uint32(v)))
		wedges += d * (d - 1) / 2
	}
	cc := 0.0
	if wedges > 0 {
		cc = 3 * float64(tri) / float64(wedges)
	}
	fmt.Printf("cohesion: %d triangles, clustering coefficient %.4f\n", tri, cc)

	// 4. Scheduling: a proper coloring groups non-adjacent users for
	// conflict-free batches.
	fmt.Printf("coloring: %d conflict-free batches (Δ+1 bound: %d)\n",
		gbbs.NumColors(run("coloring", 0).Value.([]uint32)), g.MaxDegree()+1)

	// 5. An independent seed set for influence-maximization heuristics.
	fmt.Printf("MIS: %s (mutually non-adjacent seeds)\n", run("mis", 0).Summary)
}
