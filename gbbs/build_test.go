package gbbs_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"repro/gbbs"
	"repro/internal/gen"
	"repro/internal/parallel"
)

// buildBytes serializes a built CSR so byte-level determinism can be
// asserted across thread counts.
func buildBytes(t *testing.T, eng *gbbs.Engine, src gbbs.GraphSource, tfs ...gbbs.Transform) []byte {
	t.Helper()
	g, err := eng.BuildCSR(context.Background(), src, tfs...)
	if err != nil {
		t.Fatalf("build %s: %v", src, err)
	}
	var buf bytes.Buffer
	if err := gbbs.WriteBinary(&buf, g); err != nil {
		t.Fatalf("serialize: %v", err)
	}
	return buf.Bytes()
}

func TestBuildDeterministicAcrossThreadCounts(t *testing.T) {
	cases := []struct {
		name string
		src  gbbs.GraphSource
		tfs  []gbbs.Transform
	}{
		{"rmat-sym-weighted", gbbs.RMAT(11, 8, 42), []gbbs.Transform{gbbs.Symmetrize(), gbbs.PaperWeights(42)}},
		{"rmat-directed", gbbs.RMAT(10, 8, 7), nil},
		{"torus", gbbs.Torus(9), []gbbs.Transform{gbbs.Symmetrize()}},
		{"er-relabel", gbbs.Random(3000, 20000, 5), []gbbs.Transform{gbbs.Symmetrize(), gbbs.RelabelByDegree()}},
	}
	threadCounts := []int{1, 4, runtime.NumCPU()}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ref := buildBytes(t, gbbs.New(gbbs.WithThreads(threadCounts[0])), c.src, c.tfs...)
			for _, p := range threadCounts[1:] {
				got := buildBytes(t, gbbs.New(gbbs.WithThreads(p)), c.src, c.tfs...)
				if !bytes.Equal(ref, got) {
					t.Fatalf("build of %s differs between %d and %d threads", c.src, threadCounts[0], p)
				}
			}
		})
	}
}

func TestBuildMatchesLegacyConstructors(t *testing.T) {
	eng := gbbs.New()
	ctx := context.Background()

	legacy := gen.BuildRMAT(parallel.New(runtime.NumCPU()), 10, 8, true, true, 3)
	built, err := eng.BuildCSR(ctx, gbbs.RMAT(10, 8, 3), gbbs.Symmetrize(), gbbs.PaperWeights(3))
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := gbbs.WriteBinary(&a, legacy); err != nil {
		t.Fatal(err)
	}
	if err := gbbs.WriteBinary(&b, built); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("Engine.Build(RMAT, Symmetrize, PaperWeights) differs from gen.BuildRMAT")
	}
}

func TestBuildCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	eng := gbbs.New()
	if _, err := eng.Build(ctx, gbbs.RMAT(10, 8, 1), gbbs.Symmetrize()); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled build: got %v, want context.Canceled", err)
	}
}

func TestBuildCancelledMidBuild(t *testing.T) {
	// The source cancels the context while it runs; the poll between the
	// source phase and the CSR construction must abort the build. This is
	// deterministic — no timing involved.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	src := gbbs.SourceFunc("cancelling", func(b *gbbs.Builder) (*gbbs.EdgeList, error) {
		el := &gbbs.EdgeList{N: 4, U: []uint32{0, 1, 2}, V: []uint32{1, 2, 3}}
		cancel()
		return el, nil
	})
	eng := gbbs.New()
	if _, err := eng.Build(ctx, src, gbbs.Symmetrize()); !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-build cancellation: got %v, want context.Canceled", err)
	}
}

func TestBuildSourceErrorPropagates(t *testing.T) {
	boom := errors.New("boom")
	src := gbbs.SourceFunc("failing", func(b *gbbs.Builder) (*gbbs.EdgeList, error) {
		return nil, boom
	})
	if _, err := gbbs.New().Build(context.Background(), src); !errors.Is(err, boom) {
		t.Fatalf("source error: got %v, want wrapped boom", err)
	}
	if _, err := gbbs.New().Build(context.Background(), gbbs.AdjacencyFile("/nonexistent/graph.adj", true)); err == nil {
		t.Fatal("missing file should fail the build")
	}
}

func TestBuildConcurrentEnginesIsolated(t *testing.T) {
	// Two engines with different thread budgets building concurrently must
	// not interfere: same bytes as the sequential reference. go test -race
	// covers the data-race half of the guarantee.
	ref := buildBytes(t, gbbs.New(gbbs.WithThreads(1)), gbbs.RMAT(10, 8, 9), gbbs.Symmetrize())
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		threads := 1 + i%4
		wg.Add(1)
		go func() {
			defer wg.Done()
			eng := gbbs.New(gbbs.WithThreads(threads))
			g, err := eng.BuildCSR(context.Background(), gbbs.RMAT(10, 8, 9), gbbs.Symmetrize())
			if err != nil {
				errs <- err
				return
			}
			var buf bytes.Buffer
			if err := gbbs.WriteBinary(&buf, g); err != nil {
				errs <- err
				return
			}
			if !bytes.Equal(ref, buf.Bytes()) {
				errs <- fmt.Errorf("concurrent build on %d threads differs from reference", threads)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestBuildTransformsShapeGraph(t *testing.T) {
	eng := gbbs.New()
	ctx := context.Background()

	// Symmetrize doubles the path's edges; UniformWeights caps them.
	g, err := eng.BuildCSR(ctx, gbbs.Path(100), gbbs.Symmetrize(), gbbs.UniformWeights(5, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !g.Symmetric() || g.M() != 198 {
		t.Fatalf("path+sym: symmetric=%v m=%d, want true/198", g.Symmetric(), g.M())
	}
	if !g.Weighted() {
		t.Fatal("UniformWeights did not attach weights")
	}
	g.OutNgh(0, func(u uint32, w int32) bool {
		if w < 1 || w > 5 {
			t.Fatalf("weight %d outside [1, 5]", w)
		}
		return true
	})

	// EncodeCompressed yields the parallel-byte representation.
	cg, err := eng.Build(ctx, gbbs.RMAT(9, 8, 2), gbbs.Symmetrize(), gbbs.EncodeCompressed(0))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := cg.(*gbbs.Compressed); !ok {
		t.Fatalf("EncodeCompressed produced %T", cg)
	}
	if _, err := eng.BuildCSR(ctx, gbbs.RMAT(9, 8, 2), gbbs.EncodeCompressed(0)); err == nil {
		t.Fatal("BuildCSR must reject EncodeCompressed")
	}

	// RelabelByDegree preserves the degree multiset and puts the max degree
	// at vertex 0.
	rg, err := eng.BuildCSR(ctx, gbbs.RMAT(10, 8, 3), gbbs.Symmetrize(), gbbs.RelabelByDegree())
	if err != nil {
		t.Fatal(err)
	}
	og, err := eng.BuildCSR(ctx, gbbs.RMAT(10, 8, 3), gbbs.Symmetrize())
	if err != nil {
		t.Fatal(err)
	}
	if rg.M() != og.M() || rg.N() != og.N() {
		t.Fatalf("relabel changed sizes: n %d->%d m %d->%d", og.N(), rg.N(), og.M(), rg.M())
	}
	if rg.MaxDegree() != og.MaxDegree() {
		t.Fatalf("relabel changed max degree %d -> %d", og.MaxDegree(), rg.MaxDegree())
	}
	if rg.OutDeg(0) != rg.MaxDegree() {
		t.Fatalf("degree relabel: vertex 0 has degree %d, max is %d", rg.OutDeg(0), rg.MaxDegree())
	}
	for v := 1; v < rg.N(); v++ {
		if rg.OutDeg(uint32(v)) > rg.OutDeg(uint32(v-1)) {
			t.Fatalf("degrees not non-increasing at %d", v)
		}
	}

	// Explicit Relabel with the identity is a no-op.
	perm := make([]uint32, og.N())
	for i := range perm {
		perm[i] = uint32(i)
	}
	ig, err := eng.BuildCSR(ctx, gbbs.RMAT(10, 8, 3), gbbs.Symmetrize(), gbbs.Relabel(perm))
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := gbbs.WriteBinary(&a, og); err != nil {
		t.Fatal(err)
	}
	if err := gbbs.WriteBinary(&b, ig); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("identity Relabel changed the graph")
	}

	// Conflicting relabel transforms are rejected.
	if _, err := eng.Build(ctx, gbbs.Path(4), gbbs.Relabel(perm[:4]), gbbs.RelabelByDegree()); err == nil {
		t.Fatal("Relabel + RelabelByDegree should conflict")
	}
}

func TestBuildReaderSources(t *testing.T) {
	eng := gbbs.New()
	ctx := context.Background()
	orig, err := eng.BuildCSR(ctx, gbbs.RMAT(9, 8, 4), gbbs.Symmetrize())
	if err != nil {
		t.Fatal(err)
	}

	var adj bytes.Buffer
	if err := gbbs.WriteAdjacency(&adj, orig); err != nil {
		t.Fatal(err)
	}
	g1, err := eng.BuildCSR(ctx, gbbs.Adjacency(&adj, true))
	if err != nil {
		t.Fatal(err)
	}
	if g1.N() != orig.N() || g1.M() != orig.M() {
		t.Fatalf("adjacency roundtrip: n=%d m=%d, want n=%d m=%d", g1.N(), g1.M(), orig.N(), orig.M())
	}

	var bin bytes.Buffer
	if err := gbbs.WriteBinary(&bin, orig); err != nil {
		t.Fatal(err)
	}
	// A reader source followed by a transform forces the explode+rebuild
	// path; the symmetric edge set must survive it.
	g2, err := eng.Build(ctx, gbbs.Binary(&bin), gbbs.EncodeCompressed(16))
	if err != nil {
		t.Fatal(err)
	}
	if g2.N() != orig.N() || g2.M() != orig.M() || !g2.Symmetric() {
		t.Fatalf("binary+compress: n=%d m=%d sym=%v", g2.N(), g2.M(), g2.Symmetric())
	}

	// Prebuilt + weights rebuilds with new weights.
	g3, err := eng.BuildCSR(ctx, gbbs.Prebuilt(orig), gbbs.UniformWeights(3, 8))
	if err != nil {
		t.Fatal(err)
	}
	if !g3.Weighted() || g3.M() != orig.M() || !g3.Symmetric() {
		t.Fatalf("prebuilt+weights: weighted=%v m=%d sym=%v", g3.Weighted(), g3.M(), g3.Symmetric())
	}
}

func TestEdgesSourceDoesNotMutateCallerList(t *testing.T) {
	el := &gbbs.EdgeList{N: 4, U: []uint32{0, 1, 2}, V: []uint32{1, 2, 3}}
	perm := []uint32{3, 2, 1, 0}
	src := gbbs.Edges(el)
	eng := gbbs.New()
	first, err := eng.BuildCSR(context.Background(), src, gbbs.Relabel(perm), gbbs.UniformWeights(3, 1))
	if err != nil {
		t.Fatal(err)
	}
	if el.U[0] != 0 || el.V[0] != 1 || el.W != nil {
		t.Fatalf("build mutated the caller's edge list: U=%v V=%v W=%v", el.U, el.V, el.W)
	}
	// A second build of the same source must produce the same graph.
	second, err := eng.BuildCSR(context.Background(), src, gbbs.Relabel(perm), gbbs.UniformWeights(3, 1))
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := gbbs.WriteBinary(&a, first); err != nil {
		t.Fatal(err)
	}
	if err := gbbs.WriteBinary(&b, second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("rebuilding the same Edges source produced a different graph")
	}
}

func TestExplodePathPreservesSelfLoopsAndDuplicates(t *testing.T) {
	// Readers preserve self-loops and duplicate edges; a weights-only
	// transform on the resulting CSR must not filter them away.
	el := &gbbs.EdgeList{N: 3, U: []uint32{0, 1, 1, 2}, V: []uint32{1, 1, 2, 0}}
	eng := gbbs.New()
	ctx := context.Background()
	dir, err := eng.BuildCSR(ctx, gbbs.Edges(el), gbbs.KeepSelfLoops(), gbbs.KeepDuplicates())
	if err != nil {
		t.Fatal(err)
	}
	if dir.M() != 4 {
		t.Fatalf("setup: m=%d, want 4 (self-loop kept)", dir.M())
	}
	rw, err := eng.BuildCSR(ctx, gbbs.Prebuilt(dir), gbbs.UniformWeights(5, 1))
	if err != nil {
		t.Fatal(err)
	}
	if rw.M() != dir.M() {
		t.Fatalf("weights-only rebuild changed the edge set: m=%d, want %d", rw.M(), dir.M())
	}
	if !rw.Weighted() {
		t.Fatal("weights not attached")
	}
	// Explicit shaping still filters as requested.
	shaped, err := eng.BuildCSR(ctx, gbbs.Prebuilt(dir), gbbs.Symmetrize())
	if err != nil {
		t.Fatal(err)
	}
	if !shaped.Symmetric() || shaped.M() >= 2*dir.M() {
		t.Fatalf("explicit Symmetrize: sym=%v m=%d (self-loop/dups should be filtered)", shaped.Symmetric(), shaped.M())
	}
}

func TestRunDeclarativeInput(t *testing.T) {
	eng := gbbs.New(gbbs.WithSeed(1))
	res, err := eng.Run(context.Background(), "cc", gbbs.Request{
		Input: &gbbs.InputSpec{
			Source:     gbbs.RMAT(10, 8, 1),
			Transforms: []gbbs.Transform{gbbs.Symmetrize()},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Graph == nil {
		t.Fatal("Result.Graph not set for declarative input")
	}
	if res.BuildElapsed <= 0 {
		t.Fatal("Result.BuildElapsed not recorded")
	}
	// The same run on the equivalent prebuilt graph must agree.
	g, err := eng.BuildCSR(context.Background(), gbbs.RMAT(10, 8, 1), gbbs.Symmetrize())
	if err != nil {
		t.Fatal(err)
	}
	res2, err := eng.Run(context.Background(), "cc", gbbs.Request{Graph: g})
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary != res2.Summary {
		t.Fatalf("declarative vs direct: %q vs %q", res.Summary, res2.Summary)
	}
	if res2.BuildElapsed != 0 {
		t.Fatal("BuildElapsed should be zero for direct graphs")
	}

	// Declarative input with a cancelled context fails in the build.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.Run(ctx, "cc", gbbs.Request{
		Input: &gbbs.InputSpec{Source: gbbs.RMAT(10, 8, 1), Transforms: []gbbs.Transform{gbbs.Symmetrize()}},
	}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled declarative run: got %v", err)
	}
}

func TestSourceFuncCustomSource(t *testing.T) {
	// A custom source generating in parallel through the Builder handle.
	n := 1000
	src := gbbs.SourceFunc("doubled-ring", func(b *gbbs.Builder) (*gbbs.EdgeList, error) {
		if b.Threads() < 1 {
			return nil, errors.New("no workers")
		}
		el := &gbbs.EdgeList{N: n, U: make([]uint32, n), V: make([]uint32, n)}
		b.Parallel(n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				el.U[i] = uint32(i)
				el.V[i] = uint32((i + 1) % n)
			}
		})
		return el, nil
	})
	g, err := gbbs.New(gbbs.WithThreads(4)).BuildCSR(context.Background(), src, gbbs.Symmetrize())
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != n || g.M() != 2*n {
		t.Fatalf("ring: n=%d m=%d, want %d/%d", g.N(), g.M(), n, 2*n)
	}
}

// A bin: spec still loads legacy GBBSBIN1 files: both fixtures written by
// the GBBSBIN1 writer decode to the graphs they were written from.
func TestBuildBinSpecReadsLegacyFixtures(t *testing.T) {
	eng := gbbs.New()
	ctx := context.Background()
	for _, tc := range []struct {
		file string
		want gbbs.GraphSource
		tfs  []gbbs.Transform
	}{
		{
			"weighted-symmetric.v1.bin",
			gbbs.Edges(&gbbs.EdgeList{N: 5, U: []uint32{0, 1, 2, 3}, V: []uint32{1, 2, 3, 4}, W: []int32{3, 1, 4, 1}}),
			[]gbbs.Transform{gbbs.Symmetrize()},
		},
		{"directed.v1.bin", gbbs.Edges(&gbbs.EdgeList{N: 4, U: []uint32{0, 0, 1, 2}, V: []uint32{1, 2, 2, 0}}), nil},
	} {
		src, err := gbbs.ParseSource("bin:" + filepath.Join("..", "internal", "graph", "testdata", tc.file))
		if err != nil {
			t.Fatal(err)
		}
		g, err := eng.Build(ctx, src)
		if err != nil {
			t.Fatalf("%s: %v", tc.file, err)
		}
		csr, ok := g.(*gbbs.CSR)
		if !ok {
			t.Fatalf("%s: built %T, want *gbbs.CSR", tc.file, g)
		}
		var got bytes.Buffer
		if err := gbbs.WriteBinary(&got, csr); err != nil {
			t.Fatal(err)
		}
		if want := buildBytes(t, eng, tc.want, tc.tfs...); !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("%s: decoded graph differs from the graph it was written from", tc.file)
		}
	}
}
