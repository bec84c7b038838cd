package gbbs

import (
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/parallel"
)

// GraphSource describes where a graph's raw material comes from: an
// in-memory edge list, a synthetic generator, or a serialized file. Sources
// are inert descriptions — nothing is generated, read or allocated until
// Engine.Build materializes them on the engine's private scheduler, so one
// source value can be built by many engines (each on its own thread budget)
// or carried inside a Request for declarative dispatch.
//
// The built-in sources cover every generator and reader in the repository;
// SourceFunc adapts custom loaders.
type GraphSource interface {
	// String describes the source, e.g. "rmat(scale=16,factor=16,seed=1)".
	// CLI drivers echo it and build errors quote it.
	String() string
	// load materializes the source on the build scheduler. Exactly one of
	// the returned edge list and CSR is non-nil: generators and edge lists
	// return the former, the file readers (whose formats store adjacency
	// directly) the latter.
	load(s *parallel.Scheduler) (*graph.EdgeList, *graph.CSR, error)
}

// Builder is the handle Engine.Build passes to custom sources: it exposes
// the engine's private scheduler as engine-scoped parallel loops, so a
// SourceFunc parallelizes its generation on the same thread budget as the
// rest of the build (and observes the build's context through the scheduler
// it wraps).
type Builder struct {
	s *parallel.Scheduler
}

// Threads reports the worker count of the engine running the build.
func (b *Builder) Threads() int { return b.s.Workers() }

// Poll checks the context the enclosing Engine.Exec (or build) is attached
// to, unwinding promptly when it is cancelled. Long sequential sections
// should call it between phases; the parallel loops already poll.
func (b *Builder) Poll() { b.s.Poll() }

// Parallel runs body over the half-open range [0, n) split into blocks on
// the engine's scheduler. body receives [lo, hi) sub-ranges and may be
// called concurrently from multiple goroutines.
func (b *Builder) Parallel(n int, body func(lo, hi int)) { b.s.ForRange(n, 0, body) }

// funcSource adapts a user function into a GraphSource.
type funcSource struct {
	name string
	f    func(b *Builder) (*EdgeList, error)
}

func (c *funcSource) String() string { return c.name }

func (c *funcSource) load(s *parallel.Scheduler) (*graph.EdgeList, *graph.CSR, error) {
	el, err := c.f(&Builder{s: s})
	if err != nil {
		return nil, nil, fmt.Errorf("gbbs: source %s: %w", c.name, err)
	}
	if el == nil {
		return nil, nil, fmt.Errorf("gbbs: source %s returned a nil edge list", c.name)
	}
	return el, nil, nil
}

// SourceFunc adapts f into a GraphSource named name. f receives a Builder
// bound to the building engine's scheduler and returns the edge list to
// build from; Engine.Build applies transforms and constructs the CSR. The
// returned list is owned by the build (transforms may modify it in place),
// so f should create a fresh list per call — wrap a long-lived list with
// Edges instead, which copies.
func SourceFunc(name string, f func(b *Builder) (*EdgeList, error)) GraphSource {
	return &funcSource{name: name, f: f}
}

// elSource wraps a function producing an edge list on the build scheduler.
// hintN/hintM carry the vertex and directed-edge counts the source's
// parameters imply, reported through SizeHint before anything is built.
type elSource struct {
	name  string
	hintN int64
	hintM int64
	gen   func(s *parallel.Scheduler) *graph.EdgeList
}

func (g *elSource) String() string { return g.name }

func (g *elSource) load(s *parallel.Scheduler) (*graph.EdgeList, *graph.CSR, error) {
	return g.gen(s), nil, nil
}

func (g *elSource) sizeHint() (int64, int64, bool) { return g.hintN, g.hintM, true }

// sizeHinter is the optional interface of sources that can declare their
// output size before building; see SizeHint.
type sizeHinter interface {
	sizeHint() (n, m int64, ok bool)
}

// SizeHint reports the vertex and directed-edge counts src declares before
// anything is generated or read: exact for Edges and Prebuilt, the
// parameter-implied counts for the generators (pre-dedup, saturating at
// MaxInt64 for absurd parameters). ok is false for sources whose size is
// unknowable upfront (file and stream readers, SourceFunc). Admission
// layers use it to reject oversized builds before paying for them.
func SizeHint(src GraphSource) (n, m int64, ok bool) {
	if h, hinted := src.(sizeHinter); hinted {
		return h.sizeHint()
	}
	return 0, 0, false
}

// satShift returns 2^k saturating at MaxInt64.
func satShift(k int) int64 {
	if k < 0 {
		return 0
	}
	if k >= 63 {
		return math.MaxInt64
	}
	return 1 << uint(k)
}

// satMul multiplies non-negative counts saturating at MaxInt64 (negative
// inputs clamp to 0: every hint is a size).
func satMul(a, b int64) int64 {
	if a <= 0 || b <= 0 {
		return 0
	}
	if a > math.MaxInt64/b {
		return math.MaxInt64
	}
	return a * b
}

// Edges returns a source over an in-memory edge list (el.N vertices). The
// build works on a copy, so el is never modified: one Edges source can be
// built repeatedly (or by several engines concurrently) even with mutating
// transforms like Relabel or UniformWeights in the pipeline.
func Edges(el *EdgeList) GraphSource {
	return &elSource{
		name:  fmt.Sprintf("edges(n=%d,m=%d)", el.N, el.Len()),
		hintN: int64(max(el.N, 0)),
		hintM: int64(max(el.Len(), 0)),
		gen: func(s *parallel.Scheduler) *graph.EdgeList {
			return graph.CopyEdgeList(s, el)
		},
	}
}

// RMAT returns the R-MAT power-law generator over 2^scale vertices with
// ~2^scale * edgeFactor directed edges — the stand-in for the paper's
// social networks and web crawls. Compose with Symmetrize for the "-Sym"
// variants.
func RMAT(scale, edgeFactor int, seed uint64) GraphSource {
	n := satShift(scale)
	return &elSource{
		name:  fmt.Sprintf("rmat(scale=%d,factor=%d,seed=%d)", scale, edgeFactor, seed),
		hintN: n,
		hintM: satMul(n, int64(edgeFactor)),
		gen:   func(s *parallel.Scheduler) *graph.EdgeList { return gen.RMAT(s, scale, edgeFactor, seed) },
	}
}

// Torus returns the 3-dimensional torus generator on side³ vertices (one
// directed edge per dimension per vertex); with Symmetrize it yields the
// paper's 6-regular high-diameter 3D-Torus.
func Torus(side int) GraphSource {
	n := satMul(satMul(int64(side), int64(side)), int64(side))
	return &elSource{
		name:  fmt.Sprintf("torus(side=%d)", side),
		hintN: n,
		hintM: satMul(3, n),
		gen:   func(s *parallel.Scheduler) *graph.EdgeList { return gen.Torus3D(s, side) },
	}
}

// Random returns the Erdős–Rényi generator: m uniformly random directed
// edges over n vertices (duplicates and self-loops are removed by the
// default build).
func Random(n, m int, seed uint64) GraphSource {
	return &elSource{
		name:  fmt.Sprintf("er(n=%d,m=%d,seed=%d)", n, m, seed),
		hintN: int64(max(n, 0)),
		hintM: int64(max(m, 0)),
		gen:   func(s *parallel.Scheduler) *graph.EdgeList { return gen.ErdosRenyi(s, n, m, seed) },
	}
}

// Preferential returns the Barabási–Albert preferential-attachment
// generator: n vertices each attaching k edges, power-law tail, single
// component. k is raised to at least 1 and n to at least k+1 before the
// size hint is computed, so the hint covers what the build allocates.
func Preferential(n, k int, seed uint64) GraphSource {
	name := fmt.Sprintf("ba(n=%d,k=%d,seed=%d)", n, k, seed)
	k = max(k, 1)
	n = max(n, k+1)
	return &elSource{
		name:  name,
		hintN: int64(n),
		hintM: satMul(int64(n), int64(k)),
		gen:   func(*parallel.Scheduler) *graph.EdgeList { return gen.BarabasiAlbert(n, k, seed) },
	}
}

// SmallWorld returns the Watts–Strogatz small-world generator: a ring
// lattice with k clockwise neighbors per vertex (at least 1), rewired with
// probability p.
func SmallWorld(n, k int, p float64, seed uint64) GraphSource {
	name := fmt.Sprintf("ws(n=%d,k=%d,p=%g,seed=%d)", n, k, p, seed)
	k = max(k, 1)
	return &elSource{
		name:  name,
		hintN: int64(max(n, 0)),
		hintM: satMul(int64(n), int64(k)),
		gen:   func(s *parallel.Scheduler) *graph.EdgeList { return gen.WattsStrogatz(s, n, k, p, seed) },
	}
}

// Grid returns a side×side grid (no wrap-around), one edge direction.
func Grid(side int) GraphSource {
	n := satMul(int64(side), int64(side))
	return &elSource{
		name:  fmt.Sprintf("grid(side=%d)", side),
		hintN: n,
		hintM: satMul(2, n),
		gen:   func(*parallel.Scheduler) *graph.EdgeList { return gen.Grid2D(side) },
	}
}

// Path returns a path over n vertices.
func Path(n int) GraphSource {
	return &elSource{
		name:  fmt.Sprintf("path(n=%d)", n),
		hintN: int64(max(n, 0)),
		hintM: int64(max(n-1, 0)),
		gen:   func(*parallel.Scheduler) *graph.EdgeList { return gen.Path(n) },
	}
}

// Cycle returns a cycle over n vertices.
func Cycle(n int) GraphSource {
	return &elSource{
		name:  fmt.Sprintf("cycle(n=%d)", n),
		hintN: int64(max(n, 0)),
		hintM: int64(max(n, 0)),
		gen:   func(*parallel.Scheduler) *graph.EdgeList { return gen.Cycle(n) },
	}
}

// Star returns a star: vertex 0 connected to every other vertex.
func Star(n int) GraphSource {
	return &elSource{
		name:  fmt.Sprintf("star(n=%d)", n),
		hintN: int64(max(n, 0)),
		hintM: int64(max(n-1, 0)),
		gen:   func(*parallel.Scheduler) *graph.EdgeList { return gen.Star(n) },
	}
}

// Complete returns the complete graph on n vertices (one edge direction).
func Complete(n int) GraphSource {
	return &elSource{
		name:  fmt.Sprintf("complete(n=%d)", n),
		hintN: int64(max(n, 0)),
		hintM: satMul(int64(n), int64(n-1)) / 2,
		gen:   func(*parallel.Scheduler) *graph.EdgeList { return gen.Complete(n) },
	}
}

// Tree returns a complete binary tree over n vertices.
func Tree(n int) GraphSource {
	return &elSource{
		name:  fmt.Sprintf("tree(n=%d)", n),
		hintN: int64(max(n, 0)),
		hintM: int64(max(n-1, 0)),
		gen:   func(*parallel.Scheduler) *graph.EdgeList { return gen.BinaryTree(n) },
	}
}

// Prebuilt returns a source over an already-constructed CSR graph, letting
// transform-only pipelines (relabel, compress) run through Engine.Build:
//
//	cg, err := eng.Build(ctx, gbbs.Prebuilt(g), gbbs.EncodeCompressed(0))
func Prebuilt(g *CSR) GraphSource {
	return &csrSource{
		name:  fmt.Sprintf("prebuilt(n=%d,m=%d)", g.N(), g.M()),
		hintN: int64(g.N()),
		hintM: int64(g.M()),
		hint:  true,
		read:  func(*parallel.Scheduler) (*graph.CSR, error) { return g, nil },
	}
}

// csrSource materializes a CSR directly (readers and prebuilt graphs).
// hint is true only for Prebuilt, whose size is known without reading.
type csrSource struct {
	name  string
	hintN int64
	hintM int64
	hint  bool
	read  func(s *parallel.Scheduler) (*graph.CSR, error)
}

func (c *csrSource) String() string { return c.name }

func (c *csrSource) sizeHint() (int64, int64, bool) { return c.hintN, c.hintM, c.hint }

func (c *csrSource) load(s *parallel.Scheduler) (*graph.EdgeList, *graph.CSR, error) {
	g, err := c.read(s)
	if err != nil {
		return nil, nil, fmt.Errorf("gbbs: source %s: %w", c.name, err)
	}
	return nil, g, nil
}

// Adjacency returns a source reading the (Weighted)AdjacencyGraph text
// format from r. symmetric declares whether the stream stores a symmetric
// graph (the format does not record it). Every adjacency list must be
// non-decreasing; directed streams get their transpose built and linked
// during the build.
func Adjacency(r io.Reader, symmetric bool) GraphSource {
	return &csrSource{
		name: fmt.Sprintf("adjacency(symmetric=%v)", symmetric),
		read: func(s *parallel.Scheduler) (*graph.CSR, error) { return graph.ReadAdjacency(s, r, symmetric) },
	}
}

// Binary returns a source reading the compact binary graph format from r:
// GBBSBIN2 (what WriteBinary writes), or a legacy unchecked GBBSBIN1 stream.
func Binary(r io.Reader) GraphSource {
	return &csrSource{
		name: "binary",
		read: func(s *parallel.Scheduler) (*graph.CSR, error) { return graph.ReadBinary(s, r) },
	}
}

// AdjacencyFile returns a source reading the (Weighted)AdjacencyGraph text
// format from the file at path, opened when the build runs.
func AdjacencyFile(path string, symmetric bool) GraphSource {
	return &csrSource{
		name: fmt.Sprintf("file(%s,symmetric=%v)", path, symmetric),
		read: func(s *parallel.Scheduler) (*graph.CSR, error) {
			f, err := os.Open(path)
			if err != nil {
				return nil, err
			}
			defer f.Close()
			return graph.ReadAdjacency(s, f, symmetric)
		},
	}
}

// BinaryFile returns a source reading the compact binary graph format from
// the file at path, opened when the build runs. Like Binary, it accepts
// GBBSBIN2 or a legacy GBBSBIN1 file.
func BinaryFile(path string) GraphSource {
	return &csrSource{
		name: fmt.Sprintf("bin(%s)", path),
		read: func(s *parallel.Scheduler) (*graph.CSR, error) {
			f, err := os.Open(path)
			if err != nil {
				return nil, err
			}
			defer f.Close()
			return graph.ReadBinary(s, f)
		},
	}
}
