// gbbs-gen builds a graph from a source spec plus transforms (the spec
// language of gbbs.ParseSource and gbbs.ParseTransforms) and writes it in
// the (Weighted)AdjacencyGraph text format the benchmark's I/O
// specification uses. Generation runs through a gbbs.Engine, so -threads
// bounds the worker count of the whole build instead of mutating
// process-global state:
//
//	gbbs-gen -source rmat:18 -transform sym -o graph.adj
//	gbbs-gen -source torus:64 -transform "sym;paperweights" -o torus.adj
//	gbbs-gen -source er:n=100000,m=1000000 -threads 4 -o er.adj
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"

	"repro/gbbs"
)

func main() {
	sourceSpec := flag.String("source", "", `source spec (required), e.g. "rmat:scale=18,factor=16"`)
	transformSpec := flag.String("transform", "", `transform spec, e.g. "sym;paperweights:seed=1"`)
	threads := flag.Int("threads", 0, "worker threads for generation and build (0 = all CPUs)")
	out := flag.String("o", "", "output path (default stdout)")
	flag.Parse()

	if *sourceSpec == "" {
		fmt.Fprintln(os.Stderr, "gbbs-gen: -source is required")
		os.Exit(2)
	}
	source, err := gbbs.ParseSource(*sourceSpec)
	if err != nil {
		log.Fatal(err)
	}
	transforms, err := gbbs.ParseTransforms(*transformSpec)
	if err != nil {
		log.Fatal(err)
	}
	var opts []gbbs.Option
	if *threads > 0 {
		opts = append(opts, gbbs.WithThreads(*threads))
	}
	eng := gbbs.New(opts...)
	g, err := eng.BuildCSR(context.Background(), source, transforms...)
	if err != nil {
		log.Fatal(err)
	}

	w := os.Stdout
	if *out != "" {
		if w, err = os.Create(*out); err != nil {
			log.Fatal(err)
		}
	}
	// A full disk can surface only when the file is closed, so its error
	// counts as much as the write's.
	err = gbbs.WriteAdjacency(w, g)
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s: n=%d m=%d weighted=%v symmetric=%v threads=%d\n",
		source, g.N(), g.M(), g.Weighted(), g.Symmetric(), eng.Threads())
}
