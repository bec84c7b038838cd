// Package gbbs is the public API of this Go reproduction of "Theoretically
// Efficient Parallel Graph Algorithms Can Be Fast and Scalable" (Dhulipala,
// Blelloch, Shun; SPAA 2018) — the GBBS benchmark.
//
// It exposes:
//
//   - engines (Engine, New): isolated execution scopes owning a private
//     scheduler, a thread budget and a seed, on which everything below
//     runs;
//   - graph construction as an engine-scoped pipeline (see Build):
//     GraphSource describes where a graph comes from (edge lists, the
//     RMAT / torus / Erdős–Rényi / preferential-attachment / small-world
//     generators, adjacency and binary file readers), Transform describes
//     what happens to it (Symmetrize, weight assignment, relabelling,
//     parallel-byte compression), and Engine.Build materializes the
//     pipeline;
//   - the benchmark's 15 theoretically-efficient parallel algorithms with
//     the work/depth bounds of the paper's Table 1, plus their variants
//     and the statistics suite behind the paper's Tables 3 and 8–13, all
//     registered by name (Register, Algorithms, Lookup) and run through
//     one entry point, Engine.Run, with uniform Request/Result types:
//     declarative inputs (Request.Input) built through the engine, typed
//     parameter schemas (Algorithm.Params, validated by Engine.Run with
//     descriptive errors for unknown or out-of-range options), canonical
//     request fingerprints (Request.Key) identifying deterministic
//     results, and a stable JSON encoding of Result shared by the CLI and
//     the HTTP serving layer;
//   - a textual spec language (ParseSource, ParseTransforms) describing
//     sources and transforms on command lines and over the wire.
//
// The HTTP serving layer in the repro/gbbs/serve subpackage builds on all
// of this: it accepts whole tenant requests — input spec, algorithm name,
// thread budget, deadline — as single JSON objects, executes them on
// per-request engines, keeps engine-built graphs resident in a spec-keyed
// cache, and answers repeated identical requests from a deterministic
// result cache keyed by Request.Key.
//
// # Engines
//
// An Engine owns an isolated scheduler, so concurrent engines never share
// parallelism state — one process can serve many requests, each with its own
// thread budget, seed and context. Both graph construction and algorithm
// execution run on that private scheduler. Every algorithm runs through
// Engine.Run, which dispatches by registry name with either a prebuilt
// graph or a declarative input, and returns the output as Result.Value
// (whose type per algorithm Result documents):
//
//	eng := gbbs.New(gbbs.WithThreads(8), gbbs.WithSeed(1))
//	g, err := eng.Build(ctx, gbbs.RMAT(18, 16, 1), gbbs.Symmetrize())
//	res, err := eng.Run(ctx, "bfs", gbbs.Request{Graph: g, Source: 0})
//	dist := res.Value.([]uint32)
//	res, err = eng.Run(ctx, "cc", gbbs.Request{Input: &gbbs.InputSpec{
//		Source:     gbbs.RMAT(18, 16, 1),
//		Transforms: []gbbs.Transform{gbbs.Symmetrize()},
//	}})
//
// Run checks the request against the algorithm before executing it: the
// source vertex must be in range, weighted algorithms need a weighted
// graph, and Opts must match the parameter schema. Build and Run take a
// context.Context, check it between build phases and algorithm rounds, and
// return ctx.Err() promptly after cancellation or deadline expiry.
//
// All algorithms accept any Graph (uncompressed CSR or compressed); both
// algorithms and builds are deterministic for a fixed seed, independent of
// the thread count.
//
// # Declarative specs
//
// ParseSource and ParseTransforms turn compact strings into the same source
// and transform values the constructors produce, so an input can live in a
// flag, a config file, or a JSON request body:
//
//	src, _ := gbbs.ParseSource("rmat:scale=18,factor=16")
//	tfs, _ := gbbs.ParseTransforms("symmetrize;paper-weights:1;compress")
//
// Parsed sources render canonically via String (every argument spelled
// out), which is how the serving layer's graph cache recognizes two
// spellings of the same input.
package gbbs

import (
	"io"

	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/parallel"
)

// Graph is the access interface shared by compressed and uncompressed
// graphs; see CSR and Compressed.
type Graph = graph.Graph

// CSR is the uncompressed compressed-sparse-row representation.
type CSR = graph.CSR

// Compressed is the Ligra+ parallel-byte compressed representation.
type Compressed = compress.Graph

// EdgeList is a struct-of-arrays list of (possibly weighted) edges.
type EdgeList = graph.EdgeList

// WEdge is a weighted undirected edge in MSF / matching outputs.
type WEdge = core.WEdge

// Bicc is the biconnectivity query structure (per-vertex labels + forest).
type Bicc = core.Bicc

// Inf marks unreachable distances and unassigned labels.
const Inf = core.Inf

// InfDist and NegInfDist are Bellman-Ford's unreachable / negative-cycle
// distance sentinels.
const (
	InfDist    = core.InfDist
	NegInfDist = core.NegInfDist
)

// WriteAdjacency writes the (Weighted)AdjacencyGraph text format.
func WriteAdjacency(w io.Writer, g *CSR) error { return graph.WriteAdjacency(w, g) }

// WriteBinary writes the compact binary graph format, GBBSBIN2: the CSR
// arrays behind a header CRC and per-section CRC32C checksums, so
// corruption is detected at load time. It loads far faster than the text
// format (use it for large inputs) and is the snapshot format of the
// persistent graph store. Read it back with Binary, BinaryFile or
// Engine.ReadBinaryChecked.
func WriteBinary(w io.Writer, g *CSR) error { return graph.WriteBinaryChecked(w, g) }

// The three result summaries below are O(n) passes over an algorithm's
// output. They run sequentially, each on a fresh one-worker scheduler that
// never starts a goroutine, so they need no engine.

// Degeneracy returns k_max from a coreness array.
func Degeneracy(coreness []uint32) int { return core.Degeneracy(parallel.New(1), coreness) }

// NumColors returns the number of colors a coloring uses.
func NumColors(colors []uint32) int { return core.NumColors(parallel.New(1), colors) }

// ComponentCount returns the number of distinct labels and largest class.
func ComponentCount(labels []uint32) (int, int) { return core.ComponentCount(parallel.New(1), labels) }
