package gbbs

import (
	"context"
	"testing"
)

// FuzzParseSource exercises the source-spec parser — the server's main
// untrusted-input surface — with arbitrary strings. Invariants: the parser
// never panics; an accepted spec has a stable, non-empty canonical String
// (the graph-cache key) and a SizeHint that does not panic. The canonical
// form is deliberately not re-parseable (it renders parenthesized), so no
// round-trip is asserted. An accepted spec small enough to build cheaply
// (SizeHint at most 2^12 vertices and 2^14 edges) must build without
// panicking into exactly the hinted vertex count: a hint that undercounts
// the build would let the server's size guard admit more than it checked.
func FuzzParseSource(f *testing.F) {
	eng := New(WithThreads(2))
	f.Cleanup(eng.Close)
	for _, seed := range []string{
		"rmat:16",
		"rmat:scale=18,factor=16,seed=1",
		"torus:100",
		"er:n=1000,m=5000",
		"ba:n=1000,k=4",
		"ws:n=1000,k=6,p=0.1",
		"grid:rows=10,cols=20",
		"path:100",
		"cycle:100",
		"star:100",
		"complete:32",
		"tree:n=100,arity=3",
		"file:/tmp/graph.txt",
		"bin:/tmp/graph.bin",
		"",
		":",
		"rmat",
		"rmat:",
		"rmat:scale=",
		"rmat:scale=999999999999999999999",
		"rmat:16,16,16,16",
		"unknown:1",
		"rmat:scale=16,scale=17",
		"er:n=-5",
		"ws:p=nan",
		"rmat:\x00",
		"rmat:scale=16,factor=16,seed=18446744073709551615",
		"path:0",
		"star:0",
		"tree:0",
		"ba:n=0,k=1048576",
		"ba:n=1,k=3",
		"er:0,m=9",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		src, err := ParseSource(spec)
		if err != nil {
			return
		}
		s1 := src.String()
		if s1 == "" {
			t.Fatalf("ParseSource(%q) accepted a spec with an empty canonical form", spec)
		}
		if s2 := src.String(); s2 != s1 {
			t.Fatalf("ParseSource(%q): canonical form unstable: %q then %q", spec, s1, s2)
		}
		// SizeHint must be safe on anything the parser accepts (it guards
		// the server's scale limit).
		n, m, ok := SizeHint(src)
		if !ok || n > 1<<12 || m > 1<<14 {
			return
		}
		g, err := eng.Build(context.Background(), src)
		if err != nil {
			t.Fatalf("Build(%s): %v", src, err)
		}
		if int64(g.N()) != n {
			t.Fatalf("Build(%s): n=%d, SizeHint n=%d", src, g.N(), n)
		}
	})
}

// FuzzParseTransforms exercises the transform-spec parser with arbitrary
// strings. Invariants: no panics; every accepted transform has a stable,
// non-empty canonical String.
func FuzzParseTransforms(f *testing.F) {
	for _, seed := range []string{
		"sym",
		"selfloops",
		"multi",
		"notranspose",
		"weights:seed=7",
		"weights:min=1,max=10",
		"paperweights",
		"degree-relabel",
		"compress",
		"sym,compress",
		"weights,degree-relabel,compress",
		"",
		",",
		"sym,",
		",sym",
		"unknown",
		"weights:min=10,max=1",
		"weights:min=",
		"compress:level=9",
		"sym:arg",
		"degree-relabel,degree-relabel",
		"weights:seed=18446744073709551615",
		"sym\x00",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		tfs, err := ParseTransforms(spec)
		if err != nil {
			return
		}
		for _, tf := range tfs {
			s1 := tf.String()
			if s1 == "" {
				t.Fatalf("ParseTransforms(%q) accepted a transform with an empty canonical form", spec)
			}
			if s2 := tf.String(); s2 != s1 {
				t.Fatalf("ParseTransforms(%q): canonical form unstable: %q then %q", spec, s1, s2)
			}
		}
	})
}
