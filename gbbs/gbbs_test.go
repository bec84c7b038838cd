package gbbs_test

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/gbbs"
)

// The facade tests exercise the package's public surface — engine builds,
// every Engine algorithm method, I/O and statistics — end-to-end on small
// graphs; deep correctness is covered by the internal packages' oracle
// tests.

// check fails the test if err is set or the result check ok is false.
func check(t *testing.T, name string, err error, ok bool) {
	t.Helper()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !ok {
		t.Fatalf("%s: unexpected result", name)
	}
}

func TestFacadeEndToEnd(t *testing.T) {
	ctx := context.Background()
	eng := gbbs.New()
	g, err := eng.BuildCSR(ctx, gbbs.RMAT(10, 8, 1), gbbs.Symmetrize(), gbbs.PaperWeights(1))
	check(t, "RMAT", err, g != nil && g.N() == 1024 && g.M() > 0 && g.Weighted() && g.Symmetric())
	cg, err := eng.Build(ctx, gbbs.Prebuilt(g), gbbs.EncodeCompressed(0))
	check(t, "EncodeCompressed", err, cg != nil && cg.M() == g.M())

	d, err := eng.BFS(ctx, g, 0)
	check(t, "BFS", err, len(d) == g.N() && d[0] == 0)
	d, err = eng.WeightedBFS(ctx, cg, 0)
	check(t, "WeightedBFS on compressed", err, len(d) == g.N() && d[0] == 0)
	d, err = eng.DeltaStepping(ctx, g, 0, 0)
	check(t, "DeltaStepping", err, len(d) == g.N() && d[0] == 0)
	bf, neg, err := eng.BellmanFord(ctx, g, 0)
	check(t, "BellmanFord", err, !neg && bf[0] == 0)
	dep, err := eng.BC(ctx, g, 0)
	check(t, "BC", err, len(dep) == g.N() && dep[0] == 0)
	l, err := eng.LDD(ctx, g, 0.2)
	check(t, "LDD", err, len(l) == g.N())
	labels, err := eng.Connectivity(ctx, g)
	num, largest := gbbs.ComponentCount(labels)
	check(t, "Connectivity", err, num > 0 && largest > 0)
	parent, level, roots, err := eng.SpanningForest(ctx, g)
	check(t, "SpanningForest", err, len(parent) == g.N() && len(level) == g.N() && len(roots) == num)
	b, err := eng.Biconnectivity(ctx, g)
	check(t, "Biconnectivity", err, b != nil && len(b.Labels) == g.N())
	dg, err := eng.Build(ctx, gbbs.RMAT(9, 8, 2))
	check(t, "directed RMAT", err, dg != nil && !dg.Symmetric())
	l, err = eng.SCC(ctx, dg, gbbs.SCCOpts{})
	check(t, "SCC", err, len(l) == dg.N())
	forest, w, err := eng.MSF(ctx, g)
	check(t, "MSF", err, len(forest) > 0 && w > 0)
	in, err := eng.MIS(ctx, g)
	check(t, "MIS", err, len(in) == g.N())
	in, err = eng.MISPrefix(ctx, g)
	check(t, "MISPrefix", err, len(in) == g.N())
	mm, err := eng.MaximalMatching(ctx, g)
	check(t, "MaximalMatching", err, len(mm) > 0)
	colors, err := eng.Coloring(ctx, g)
	check(t, "Coloring", err, gbbs.NumColors(colors) >= 2)
	colors, err = eng.ColoringLF(ctx, g)
	check(t, "ColoringLF", err, gbbs.NumColors(colors) >= 2)
	coreness, rho, err := eng.KCore(ctx, g)
	check(t, "KCore", err, gbbs.Degeneracy(coreness) > 0 && rho > 0)
	approx, err := eng.ApproxKCore(ctx, g)
	check(t, "ApproxKCore", err, len(approx) == g.N())
	cover, err := eng.ApproxSetCover(ctx, g, 0.01)
	check(t, "ApproxSetCover", err, len(cover) > 0)
	tc, err := eng.TriangleCount(ctx, g)
	check(t, "TriangleCount", err, tc >= 0)
}

func TestFacadeIO(t *testing.T) {
	ctx := context.Background()
	eng := gbbs.New()
	g, err := eng.BuildCSR(ctx, gbbs.Random(100, 400, 3), gbbs.Symmetrize(), gbbs.PaperWeights(3))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := gbbs.WriteAdjacency(&buf, g); err != nil {
		t.Fatal(err)
	}
	h, err := eng.Build(ctx, gbbs.Adjacency(&buf, true))
	if err != nil {
		t.Fatal(err)
	}
	if h.N() != g.N() || h.M() != g.M() {
		t.Fatal("I/O round trip mismatch")
	}
}

func TestFacadeStats(t *testing.T) {
	ctx := context.Background()
	eng := gbbs.New()
	g, err := eng.Build(ctx, gbbs.Torus(5), gbbs.Symmetrize())
	if err != nil {
		t.Fatal(err)
	}
	s, err := eng.StatsSym(ctx, "torus", g, gbbs.StatsOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if s.KMax != 6 || s.NumCC != 1 {
		t.Fatalf("stats: %+v", s)
	}
	var buf bytes.Buffer
	gbbs.WriteStats(&buf, s, false)
	if !strings.Contains(buf.String(), "kmax") {
		t.Fatal("stats table missing rows")
	}
	dg, err := eng.Build(ctx, gbbs.RMAT(8, 8, 4))
	if err != nil {
		t.Fatal(err)
	}
	sd, err := eng.StatsDir(ctx, "dir", dg, gbbs.StatsOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sd.NumSCC == 0 {
		t.Fatal("directed stats missing SCCs")
	}
}

func TestFacadeEdgeListPath(t *testing.T) {
	ctx := context.Background()
	eng := gbbs.New()
	el := &gbbs.EdgeList{N: 4, U: []uint32{0, 1, 2}, V: []uint32{1, 2, 3}}
	g, err := eng.Build(ctx, gbbs.Edges(el), gbbs.Symmetrize())
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 6 {
		t.Fatalf("M = %d", g.M())
	}
	d, err := eng.BFS(ctx, g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d[3] != 3 {
		t.Fatalf("path distance = %d", d[3])
	}
}
