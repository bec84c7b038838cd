package graph

import (
	"bytes"
	"encoding/binary"
	"slices"
	"strconv"
	"strings"
	"testing"
)

func TestAdjacencyRoundTripUnweighted(t *testing.T) {
	el := &EdgeList{N: 4, U: []uint32{0, 0, 1, 2}, V: []uint32{1, 2, 2, 0}}
	g := FromEdgeList(sched, 4, el, BuildOptions{})
	var buf bytes.Buffer
	if err := WriteAdjacency(&buf, g); err != nil {
		t.Fatal(err)
	}
	h, err := ReadAdjacency(sched, &buf, false)
	if err != nil {
		t.Fatal(err)
	}
	if h.N() != g.N() || h.M() != g.M() {
		t.Fatalf("round trip N=%d M=%d want %d %d", h.N(), h.M(), g.N(), g.M())
	}
	ht, gt := h.Transposed(), g.Transposed()
	for v := uint32(0); int(v) < g.N(); v++ {
		if !slices.Equal(h.OutNghSlice(v), g.OutNghSlice(v)) {
			t.Fatalf("adjacency mismatch at %d", v)
		}
		if !slices.Equal(ht.OutNghSlice(v), gt.OutNghSlice(v)) || !slices.Equal(ht.OutWeightSlice(v), gt.OutWeightSlice(v)) {
			t.Fatalf("in-adjacency mismatch at %d", v)
		}
	}
}

func TestAdjacencyRoundTripWeighted(t *testing.T) {
	el := &EdgeList{N: 3, U: []uint32{0, 1, 2}, V: []uint32{1, 2, 0}, W: []int32{4, 5, 6}}
	g := FromEdgeList(sched, 3, el, BuildOptions{})
	var buf bytes.Buffer
	if err := WriteAdjacency(&buf, g); err != nil {
		t.Fatal(err)
	}
	h, err := ReadAdjacency(sched, &buf, false)
	if err != nil {
		t.Fatal(err)
	}
	if !h.Weighted() {
		t.Fatal("lost weights")
	}
	for v := uint32(0); int(v) < g.N(); v++ {
		if !slices.Equal(h.OutWeightSlice(v), g.OutWeightSlice(v)) {
			t.Fatalf("weights mismatch at %d", v)
		}
	}
}

func TestAdjacencyRoundTripSymmetric(t *testing.T) {
	el := &EdgeList{N: 3, U: []uint32{0, 1}, V: []uint32{1, 2}}
	g := FromEdgeList(sched, 3, el, BuildOptions{Symmetrize: true})
	var buf bytes.Buffer
	if err := WriteAdjacency(&buf, g); err != nil {
		t.Fatal(err)
	}
	h, err := ReadAdjacency(sched, &buf, true)
	if err != nil {
		t.Fatal(err)
	}
	if !h.Symmetric() || h.M() != 4 {
		t.Fatalf("symmetric round trip: sym=%v M=%d", h.Symmetric(), h.M())
	}
}

func TestReadAdjacencyErrors(t *testing.T) {
	cases := []string{
		"",
		"BogusHeader\n1\n0\n0\n",
		"AdjacencyGraph\n2\n1\n0\n0\n5\n",    // edge target out of range
		"AdjacencyGraph\n2\n1\n0\n",          // truncated
		"AdjacencyGraph\n2\n2\n1\n0\n0\n1\n", // non-monotone offsets
		"AdjacencyGraph\n-1\n0\n",            // negative n
		"AdjacencyGraph\n2\n1\n1\n1\n0\n",    // first offset not 0: edge 0 has no source
		"AdjacencyGraph\n1099511627776\n0\n", // n beyond the uint32 ID space
		// Weights outside int32: once these loaded wrapped, as 1 and as a
		// negative weight.
		"WeightedAdjacencyGraph\n2\n2\n0\n1\n1\n0\n4294967297\n4294967297\n",
		"WeightedAdjacencyGraph\n2\n2\n0\n1\n1\n0\n2147483648\n2147483648\n",
		"WeightedAdjacencyGraph\n2\n2\n0\n1\n1\n0\n-2147483649\n1\n",
	}
	for i, c := range cases {
		if _, err := ReadAdjacency(sched, strings.NewReader(c), false); err == nil {
			t.Fatalf("case %d: expected error", i)
		}
	}
}

// v1Bytes encodes g in the legacy GBBSBIN1 layout, which no writer produces
// any more: GBBSBIN2 without its four checksums.
func v1Bytes(g *CSR) []byte {
	flags := uint32(0)
	if g.Weighted() {
		flags |= binWeighted
	}
	if g.Symmetric() {
		flags |= binSymmetric
	}
	b := append([]byte(nil), binMagic1[:]...)
	b = binary.LittleEndian.AppendUint32(b, flags)
	b = binary.LittleEndian.AppendUint64(b, uint64(g.n))
	b = binary.LittleEndian.AppendUint64(b, uint64(len(g.edges)))
	b, _ = binary.Append(b, binary.LittleEndian, g.offsets)
	b, _ = binary.Append(b, binary.LittleEndian, g.edges)
	if g.Weighted() {
		b, _ = binary.Append(b, binary.LittleEndian, g.weights)
	}
	return b
}

// textBytes encodes g in the text adjacency format.
func textBytes(t *testing.T, g *CSR) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteAdjacency(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// loader is one serialization of a CSR and the reader that decodes it.
type loader struct {
	name   string
	encode func(g *CSR) []byte
	decode func(b []byte, symmetric bool) (*CSR, error)
}

// loaders are the three readers: text, GBBSBIN1 through ReadBinary, and
// GBBSBIN2 through both binary readers.
func loaders(t *testing.T) []loader {
	text := func(b []byte, symmetric bool) (*CSR, error) {
		return ReadAdjacency(sched, bytes.NewReader(b), symmetric)
	}
	plain := func(b []byte, _ bool) (*CSR, error) { return decodePlain(b) }
	checked := func(b []byte, _ bool) (*CSR, error) { return decodeChecked(b) }
	v2 := func(g *CSR) []byte { return binBytes(t, g) }
	return []loader{
		{"text", func(g *CSR) []byte { return textBytes(t, g) }, text},
		{"GBBSBIN1", v1Bytes, plain},
		{"GBBSBIN2", v2, plain},
		{"GBBSBIN2 checked", v2, checked},
	}
}

// No reader sorts, so every reader refuses a file with an unsorted
// adjacency list, symmetric or directed: HasEdge's binary search, Overlay's
// merge and triangle counting's skip of repeated edges all assume sorted
// lists.
func TestReadersRejectUnsortedAdjacency(t *testing.T) {
	for _, symmetric := range []bool{false, true} {
		// 0 -> {2, 1} is unsorted; stored symmetric, the reverse edges are
		// in place.
		unsorted := &CSR{n: 3, offsets: []int64{0, 2, 3, 4}, edges: []uint32{2, 1, 0, 0}, symmetric: symmetric}
		for _, l := range loaders(t) {
			what := l.name + " symmetric=" + strconv.FormatBool(symmetric)
			mustNotLoad(t, what, func(b []byte) (*CSR, error) { return l.decode(b, symmetric) }, l.encode(unsorted))
		}
	}
}

// Every reader refuses a graph that claims to be symmetric but lacks an
// edge's reverse, or holds it with another weight: a symmetric graph is its
// own transpose, so the pull direction would read the missing edges. A
// symmetric graph with duplicates, self-loops and equal weights loads.
func TestReadersRejectAsymmetricSymmetricGraphs(t *testing.T) {
	bad := map[string]*CSR{
		// AdjacencyGraph 3 1 0 1 1 1: the single edge 0 -> 1.
		"one direction": {n: 3, offsets: []int64{0, 1, 1, 1}, edges: []uint32{1}, symmetric: true},
		"reverse missing among others": {n: 4, offsets: []int64{0, 2, 4, 5, 6},
			edges: []uint32{1, 2, 0, 3, 0, 2}, symmetric: true},
		"weights differ": {n: 2, offsets: []int64{0, 1, 2}, edges: []uint32{1, 0},
			weights: []int32{5, 6}, symmetric: true},
		"one duplicate's weight unmatched": {n: 2, offsets: []int64{0, 2, 4}, edges: []uint32{1, 1, 0, 0},
			weights: []int32{3, 4, 3, 3}, symmetric: true},
	}
	good := &CSR{n: 3, offsets: []int64{0, 4, 6, 7}, edges: []uint32{0, 1, 1, 2, 0, 0, 0},
		weights: []int32{9, 4, 7, 2, 7, 4, 2}, symmetric: true}
	for _, l := range loaders(t) {
		for name, g := range bad {
			mustNotLoad(t, l.name+" "+name, func(b []byte) (*CSR, error) { return l.decode(b, true) }, l.encode(g))
		}
		got, err := l.decode(l.encode(good), true)
		if err != nil {
			t.Fatalf("%s: symmetric multigraph refused: %v", l.name, err)
		}
		checkLoaded(t, got)
	}
}

// A directed graph loaded by any reader equals, in both directions byte for
// byte, FromEdgeList over the same edges: the readers keep the stored
// adjacency (duplicates and self-loops included) and link the transpose the
// builder would have built.
func TestDirectedLoadsMatchFromEdgeList(t *testing.T) {
	const n = 40
	for _, weighted := range []bool{false, true} {
		el := NewEdgeList(n, 0, weighted)
		x := uint32(7)
		for i := 0; i < 300; i++ {
			x = x*1103515245 + 12345
			el.Add(x>>8%n, x>>20%n, int32(x>>4%9)+1) // self-loops and duplicates included
		}
		want := FromEdgeList(sched, n, el, BuildOptions{KeepDuplicates: true, KeepSelfLoops: true})
		for _, l := range loaders(t) {
			got, err := l.decode(l.encode(want), false)
			if err != nil {
				t.Fatalf("%s weighted=%v: %v", l.name, weighted, err)
			}
			if !bytes.Equal(binBytes(t, got), binBytes(t, want)) {
				t.Errorf("%s weighted=%v: out-direction differs from FromEdgeList", l.name, weighted)
			}
			if got.t == nil || got.t.t != got || !bytes.Equal(binBytes(t, got.t), binBytes(t, want.t)) {
				t.Errorf("%s weighted=%v: transpose differs from FromEdgeList's", l.name, weighted)
			}
		}
	}
}

// checkLoaded asserts what every reader promises of a graph it accepts:
// sorted adjacency lists, and for a directed graph a linked transpose that
// is its exact reverse, equal in-neighbors in out-order with their weights.
func checkLoaded(t *testing.T, g *CSR) {
	t.Helper()
	for v := uint32(0); int(v) < g.n; v++ {
		if !slices.IsSorted(g.OutNghSlice(v)) {
			t.Fatalf("accepted graph has unsorted adjacency at vertex %d", v)
		}
	}
	if g.symmetric {
		for v := uint32(0); int(v) < g.n; v++ {
			g.OutNgh(v, func(u uint32, w int32) bool {
				found := false
				g.OutNgh(u, func(x uint32, y int32) bool {
					found = x == v && y == w
					return !found
				})
				if !found {
					t.Fatalf("accepted symmetric graph has edge (%d, %d, w=%d) without its reverse", v, u, w)
				}
				return true
			})
		}
		return
	}
	type in struct {
		v uint32
		w int32
	}
	rev := make([][]in, g.n)
	for v := uint32(0); int(v) < g.n; v++ {
		g.OutNgh(v, func(u uint32, w int32) bool {
			rev[u] = append(rev[u], in{v, w})
			return true
		})
	}
	tr := g.Transposed()
	if tr == nil || tr.t != g || tr.M() != g.M() || tr.Weighted() != g.Weighted() {
		t.Fatal("accepted directed graph has no transpose linked both ways")
	}
	for u := uint32(0); int(u) < g.n; u++ {
		var got []in
		tr.OutNgh(u, func(v uint32, w int32) bool {
			got = append(got, in{v, w})
			return true
		})
		if !slices.Equal(got, rev[u]) {
			t.Fatalf("transpose row %d = %v, want the reverse %v", u, got, rev[u])
		}
	}
}

// FuzzReadAdjacency drives the text reader with arbitrary input: it must
// never panic, and every graph it accepts passes checkLoaded.
func FuzzReadAdjacency(f *testing.F) {
	f.Add([]byte("AdjacencyGraph\n4\n4\n0\n2\n3\n4\n1\n2\n2\n0\n"), false)
	f.Add([]byte("WeightedAdjacencyGraph\n3\n4\n0\n2\n2\n1\n1\n0\n2\n5\n3\n1\n7\n"), false)
	f.Add([]byte("AdjacencyGraph\n3\n4\n0\n1\n3\n1\n0\n2\n1\n"), true)
	f.Add([]byte("AdjacencyGraph\n3\n2\n0\n2\n2\n2\n1\n"), false)
	f.Add([]byte("AdjacencyGraph\n1000000000000\n0\n"), false)
	f.Fuzz(func(t *testing.T, b []byte, symmetric bool) {
		g, err := ReadAdjacency(sched, bytes.NewReader(b), symmetric)
		if err != nil {
			return
		}
		checkLoaded(t, g)
	})
}
