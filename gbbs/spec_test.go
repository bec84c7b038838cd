package gbbs_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/gbbs"
)

func TestParseSourceKinds(t *testing.T) {
	cases := []struct {
		spec string
		want string // String() of the parsed source
	}{
		{"rmat:scale=10,factor=8,seed=3", "rmat(scale=10,factor=8,seed=3)"},
		{"rmat", "rmat(scale=16,factor=16,seed=1)"},
		{"torus:side=12", "torus(side=12)"},
		{"er:n=100,m=500,seed=2", "er(n=100,m=500,seed=2)"},
		{"ba:n=100,k=3,seed=2", "ba(n=100,k=3,seed=2)"},
		{"ws:n=100,k=4,p=0.25,seed=2", "ws(n=100,k=4,p=0.25,seed=2)"},
		{"grid:side=7", "grid(side=7)"},
		{"path:n=9", "path(n=9)"},
		{"cycle:n=9", "cycle(n=9)"},
		{"star:n=9", "star(n=9)"},
		{"complete:n=9", "complete(n=9)"},
		{"tree:n=15", "tree(n=15)"},
		{"file:path=g.adj,sym=false", "file(g.adj,symmetric=false)"},
		{"bin:path=g.bin", "bin(g.bin)"},
	}
	for _, c := range cases {
		src, err := gbbs.ParseSource(c.spec)
		if err != nil {
			t.Errorf("ParseSource(%q): %v", c.spec, err)
			continue
		}
		if src.String() != c.want {
			t.Errorf("ParseSource(%q) = %s, want %s", c.spec, src, c.want)
		}
	}
}

func TestParseSourcePositional(t *testing.T) {
	cases := []struct {
		spec string
		want string
	}{
		{"rmat:18", "rmat(scale=18,factor=16,seed=1)"},
		{"rmat:18,factor=8", "rmat(scale=18,factor=8,seed=1)"},
		{"torus:12", "torus(side=12)"},
		{"er:100,m=500", "er(n=100,m=500,seed=1)"},
		{"ba:100", "ba(n=100,k=16,seed=1)"},
		{"ba:100,k=3", "ba(n=100,k=3,seed=1)"},
		{"ws:100", "ws(n=100,k=16,p=0.1,seed=1)"},
		{"grid:7", "grid(side=7)"},
		{"path:9", "path(n=9)"},
		{"cycle:9", "cycle(n=9)"},
		{"star:9", "star(n=9)"},
		{"complete:9", "complete(n=9)"},
		{"tree:15", "tree(n=15)"},
		{"file:g.adj", "file(g.adj,symmetric=true)"},
		{"file:g.adj,sym=false", "file(g.adj,symmetric=false)"},
		{"bin:g.bin", "bin(g.bin)"},
	}
	for _, c := range cases {
		src, err := gbbs.ParseSource(c.spec)
		if err != nil {
			t.Errorf("ParseSource(%q): %v", c.spec, err)
			continue
		}
		if src.String() != c.want {
			t.Errorf("ParseSource(%q) = %s, want %s", c.spec, src, c.want)
		}
	}
	for _, spec := range []string{
		"rmat:18,19",       // only the first argument may be positional
		"rmat:18,scale=19", // positional + keyed duplicate
		"rmat:scale=1,scale=2",
		"rmat:factor=8,18", // a positional argument must come first
	} {
		if _, err := gbbs.ParseSource(spec); err == nil {
			t.Errorf("ParseSource(%q) should fail", spec)
		}
	}
}

func TestParseTransformPositional(t *testing.T) {
	cases := []struct {
		spec string
		want string
	}{
		{"weights:8", "weights(max=8,seed=1)"},
		{"weights:4,seed=2", "weights(max=4,seed=2)"},
		{"uniform-weights:3", "weights(max=3,seed=1)"},
		{"paperweights:5", "paperweights(seed=5)"},
		{"paper-weights:5", "paperweights(seed=5)"},
		{"compress:64", "compress(block=64)"},
	}
	for _, c := range cases {
		tfs, err := gbbs.ParseTransforms(c.spec)
		if err != nil {
			t.Errorf("ParseTransforms(%q): %v", c.spec, err)
			continue
		}
		if len(tfs) != 1 || tfs[0].String() != c.want {
			t.Errorf("ParseTransforms(%q) = %v, want [%s]", c.spec, tfs, c.want)
		}
	}
	// Kinds without arguments have no positional key, and a positional
	// argument may not repeat a keyed one.
	for _, spec := range []string{"sym:4", "degree-relabel:1", "notranspose:x", "compress:64,block=32", "weights:seed=2,8"} {
		if _, err := gbbs.ParseTransforms(spec); err == nil {
			t.Errorf("ParseTransforms(%q) should fail", spec)
		}
	}
}

func TestParseTransformAliases(t *testing.T) {
	tfs, err := gbbs.ParseTransforms("symmetrize;paper-weights:5;compress:32")
	if err != nil {
		t.Fatal(err)
	}
	joined := make([]string, len(tfs))
	for i, tf := range tfs {
		joined[i] = tf.String()
	}
	got := strings.Join(joined, " ")
	want := "sym paperweights(seed=5) compress(block=32)"
	if got != want {
		t.Fatalf("transforms = %q, want %q", got, want)
	}
}

func TestParseSourceErrors(t *testing.T) {
	for _, spec := range []string{
		"",
		"unknown",
		"rmat:scale=abc",
		"rmat:scale",
		"file",          // missing path
		"bin:path=",     // empty path
		"er:seed=-1",    // negative unsigned
		"ws:p=notanum",  // bad float
		"file:sym=huh",  // bad bool (and missing path)
		"torus:side=xx", // bad int
		"rmat:scal=18",  // typo'd key must fail, not fall back to defaults
		"torus:scale=4", // key from another kind
		"er:n=100,m=-1", // negative sizes would reach make() inside a generator
		"rmat:factor=-1",
		"path:n=-5",
	} {
		if _, err := gbbs.ParseSource(spec); err == nil {
			t.Errorf("ParseSource(%q) should fail", spec)
		}
	}
}

func TestParseTransforms(t *testing.T) {
	tfs, err := gbbs.ParseTransforms("sym;paperweights:seed=5;compress:block=32")
	if err != nil {
		t.Fatal(err)
	}
	if len(tfs) != 3 {
		t.Fatalf("got %d transforms, want 3", len(tfs))
	}
	joined := make([]string, len(tfs))
	for i, tf := range tfs {
		joined[i] = tf.String()
	}
	got := strings.Join(joined, " ")
	want := "sym paperweights(seed=5) compress(block=32)"
	if got != want {
		t.Fatalf("transforms = %q, want %q", got, want)
	}

	if tfs, err := gbbs.ParseTransforms("  "); err != nil || tfs != nil {
		t.Fatalf("blank spec: %v, %v", tfs, err)
	}
	for _, spec := range []string{"bogus", "weights:max=abc", "compress:block=x", "sym:n=4", "compress:blok=8"} {
		if _, err := gbbs.ParseTransforms(spec); err == nil {
			t.Errorf("ParseTransforms(%q) should fail", spec)
		}
	}
	// Every directed graph carries its transpose, so no transform skips it.
	for _, spec := range []string{"notranspose", "no-transpose", "sym;notranspose"} {
		if _, err := gbbs.ParseTransforms(spec); err == nil || !strings.Contains(err.Error(), "unknown transform") {
			t.Errorf("ParseTransforms(%q) = %v, want an unknown-transform error", spec, err)
		}
	}
}

func TestSizeHint(t *testing.T) {
	cases := []struct {
		src  gbbs.GraphSource
		n, m int64
	}{
		{gbbs.RMAT(10, 16, 1), 1024, 16384},
		{gbbs.Torus(8), 512, 1536},
		{gbbs.Random(100, 500, 1), 100, 500},
		{gbbs.Preferential(100, 4, 1), 100, 400},
		// ba raises n to k+1 and k to 1 before hinting, as the build does.
		{gbbs.Preferential(0, 1<<20, 1), 1<<20 + 1, (1<<20 + 1) << 20},
		{gbbs.Preferential(1, 100000, 1), 100001, 100001 * 100000},
		{gbbs.Preferential(5, 0, 1), 5, 5},
		{gbbs.SmallWorld(10, 0, 0.1, 1), 10, 10},
		{gbbs.Grid(8), 64, 128},
		{gbbs.Path(100), 100, 99},
		{gbbs.Complete(10), 10, 45},
		{gbbs.Edges(&gbbs.EdgeList{N: 3, U: []uint32{0}, V: []uint32{1}}), 3, 1},
	}
	for _, c := range cases {
		n, m, ok := gbbs.SizeHint(c.src)
		if !ok || n != c.n || m != c.m {
			t.Errorf("SizeHint(%s) = (%d, %d, %v), want (%d, %d, true)", c.src, n, m, ok, c.n, c.m)
		}
	}
	// Absurd parameters saturate instead of overflowing.
	if _, m, ok := gbbs.SizeHint(gbbs.RMAT(80, 1<<40, 1)); !ok || m <= 0 {
		t.Errorf("SizeHint(rmat:80) = m=%d ok=%v, want saturated positive", m, ok)
	}
	// Readers and custom sources cannot know their size upfront.
	if _, _, ok := gbbs.SizeHint(gbbs.BinaryFile("g.bin")); ok {
		t.Error("SizeHint(bin file) should report ok=false")
	}
	if _, _, ok := gbbs.SizeHint(gbbs.SourceFunc("custom", nil)); ok {
		t.Error("SizeHint(SourceFunc) should report ok=false")
	}
}

func TestParsedSpecBuilds(t *testing.T) {
	src, err := gbbs.ParseSource("er:n=500,m=3000,seed=9")
	if err != nil {
		t.Fatal(err)
	}
	tfs, err := gbbs.ParseTransforms("sym;weights:max=4,seed=9")
	if err != nil {
		t.Fatal(err)
	}
	g, err := gbbs.New().BuildCSR(context.Background(), src, tfs...)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 500 || !g.Symmetric() || !g.Weighted() {
		t.Fatalf("spec build: n=%d sym=%v weighted=%v", g.N(), g.Symmetric(), g.Weighted())
	}
}

// TestSourceKindsBuildAtTinySizes builds every generator kind at n = 0, 1
// and a small n, without Symmetrize, and checks the built graph against the
// size the source declares: SizeHint's n exactly, its m as an upper bound.
func TestSourceKindsBuildAtTinySizes(t *testing.T) {
	eng := gbbs.New(gbbs.WithThreads(2))
	defer eng.Close()
	for _, kind := range []string{"rmat", "torus", "er", "ba", "ws", "grid", "path", "cycle", "star", "complete", "tree"} {
		for _, size := range []int{0, 1, 5} {
			spec := fmt.Sprintf("%s:%d", kind, size)
			switch kind {
			case "er":
				spec += ",m=20"
			case "rmat":
				spec += ",factor=4"
			case "ba", "ws":
				spec += ",k=2"
			}
			src, err := gbbs.ParseSource(spec)
			if err != nil {
				t.Fatalf("ParseSource(%q): %v", spec, err)
			}
			n, m, ok := gbbs.SizeHint(src)
			if !ok {
				t.Fatalf("SizeHint(%s) not ok", src)
			}
			g, err := eng.Build(context.Background(), src)
			if err != nil {
				t.Errorf("Build(%s): %v", src, err)
				continue
			}
			if int64(g.N()) != n || int64(g.M()) > m {
				t.Errorf("Build(%s): n=%d m=%d, SizeHint n=%d m=%d", src, g.N(), g.M(), n, m)
			}
		}
	}
}
