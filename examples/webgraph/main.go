// Web-graph pipeline on compressed graphs: the paper's headline engineering
// point is that Ligra+ parallel-byte compression lets the Hyperlink2012
// crawl fit in one machine (<1.5 bytes/edge vs 8+ uncompressed). This
// example builds a web-like graph, compresses it, reports the ratio, and
// shows the same algorithms producing identical answers on both
// representations; it exits non-zero if any answer differs.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"reflect"
	"time"

	"repro/gbbs"
)

func main() {
	scale := flag.Int("scale", 17, "log2 of vertex count")
	flag.Parse()

	eng := gbbs.New(gbbs.WithSeed(1))
	ctx := context.Background()
	g, err := eng.BuildCSR(ctx, gbbs.RMAT(*scale, 16, 2012), gbbs.Symmetrize())
	if err != nil {
		log.Fatal(err)
	}
	// Re-encoding an existing CSR is itself a build pipeline: Prebuilt
	// wraps it as a source and EncodeCompressed selects the parallel-byte
	// output representation.
	built, err := eng.Build(ctx, gbbs.Prebuilt(g), gbbs.EncodeCompressed(0))
	if err != nil {
		log.Fatal(err)
	}
	cg := built.(*gbbs.Compressed)

	uncompressedBytes := int64(g.M()) * 4 // 4-byte neighbor IDs
	fmt.Printf("web-sim:      n=%d m=%d\n", g.N(), g.M())
	fmt.Printf("uncompressed: %.1f MB (4 B/edge)\n", float64(uncompressedBytes)/1e6)
	fmt.Printf("compressed:   %.1f MB (%.2f B/edge)\n",
		float64(cg.SizeBytes())/1e6, cg.BytesPerEdge())

	// Every algorithm is deterministic for a fixed seed, so both
	// representations must give the identical Result.Value.
	mismatches := 0
	for _, name := range []string{"bfs", "cc", "kcore", "tc"} {
		var res [2]gbbs.Result
		for i, gr := range []gbbs.Graph{g, cg} {
			if res[i], err = eng.Run(ctx, name, gbbs.Request{Graph: gr}); err != nil {
				log.Fatal(err)
			}
		}
		status := "OK"
		if res[0].Summary != res[1].Summary || !reflect.DeepEqual(res[0].Value, res[1].Value) {
			status = fmt.Sprintf("MISMATCH (%s vs %s)", res[0].Summary, res[1].Summary)
			mismatches++
		}
		fmt.Printf("%-6s uncompressed %-10v compressed %-10v agree: %s (%s)\n", name,
			res[0].Elapsed.Round(time.Millisecond), res[1].Elapsed.Round(time.Millisecond), status, res[0].Summary)
	}
	if mismatches > 0 {
		fmt.Fprintf(os.Stderr, "webgraph: %d algorithms disagree between representations\n", mismatches)
		os.Exit(1)
	}
}
