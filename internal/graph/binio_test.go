package graph

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
)

// Fixtures under testdata/, written by the codecs that preceded the single
// GBBSBIN2 writer: GBBSBIN1 files of weightedSymmetricGraph and
// directedGraph, and a GBBSBIN2 file of testGraphForIO.
const (
	fixtureV1WeightedSymmetric = "weighted-symmetric.v1.bin"
	fixtureV1Directed          = "directed.v1.bin"
	fixtureV2IO                = "io.v2.bin"
)

func fixture(tb testing.TB, name string) []byte {
	tb.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

func weightedSymmetricGraph() *CSR {
	el := &EdgeList{N: 5, U: []uint32{0, 1, 2, 3}, V: []uint32{1, 2, 3, 4}, W: []int32{3, 1, 4, 1}}
	return FromEdgeList(sched, 5, el, BuildOptions{Symmetrize: true})
}

func directedGraph() *CSR {
	el := &EdgeList{N: 4, U: []uint32{0, 0, 1, 2}, V: []uint32{1, 2, 2, 0}}
	return FromEdgeList(sched, 4, el, BuildOptions{})
}

func TestBinaryRoundTripSymmetricWeighted(t *testing.T) {
	g := weightedSymmetricGraph()
	var buf bytes.Buffer
	if err := WriteBinaryChecked(&buf, g); err != nil {
		t.Fatal(err)
	}
	h, err := ReadBinary(sched, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if h.N() != g.N() || h.M() != g.M() || !h.Symmetric() || !h.Weighted() {
		t.Fatalf("header: n=%d m=%d sym=%v w=%v", h.N(), h.M(), h.Symmetric(), h.Weighted())
	}
	for v := uint32(0); int(v) < g.N(); v++ {
		if !slices.Equal(h.OutNghSlice(v), g.OutNghSlice(v)) ||
			!slices.Equal(h.OutWeightSlice(v), g.OutWeightSlice(v)) {
			t.Fatalf("adjacency mismatch at %d", v)
		}
	}
}

func TestBinaryRoundTripDirected(t *testing.T) {
	g := directedGraph()
	var buf bytes.Buffer
	if err := WriteBinaryChecked(&buf, g); err != nil {
		t.Fatal(err)
	}
	h, err := ReadBinary(sched, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if h.Symmetric() {
		t.Fatal("directedness lost")
	}
	ht, gt := h.Transposed(), g.Transposed()
	for v := uint32(0); int(v) < g.N(); v++ {
		if !slices.Equal(h.OutNghSlice(v), g.OutNghSlice(v)) {
			t.Fatalf("out mismatch at %d", v)
		}
		if !slices.Equal(ht.OutNghSlice(v), gt.OutNghSlice(v)) || !slices.Equal(ht.OutWeightSlice(v), gt.OutWeightSlice(v)) {
			t.Fatalf("in mismatch at %d (transpose built on load)", v)
		}
	}
}

// Both legacy GBBSBIN1 fixtures still decode, to exactly the graphs they
// were written from (the directed one with its transpose built on load); the
// strict reader refuses them.
func TestReadBinaryDecodesLegacyFixtures(t *testing.T) {
	for _, tc := range []struct {
		file string
		want *CSR
	}{
		{fixtureV1WeightedSymmetric, weightedSymmetricGraph()},
		{fixtureV1Directed, directedGraph()},
	} {
		b := fixture(t, tc.file)
		g, err := ReadBinary(sched, bytes.NewReader(b))
		if err != nil {
			t.Fatalf("%s: %v", tc.file, err)
		}
		if g.Symmetric() != tc.want.Symmetric() || g.Weighted() != tc.want.Weighted() {
			t.Fatalf("%s: sym=%v weighted=%v", tc.file, g.Symmetric(), g.Weighted())
		}
		if !bytes.Equal(binBytes(t, g), binBytes(t, tc.want)) {
			t.Fatalf("%s: decoded graph differs from the graph it was written from", tc.file)
		}
		gt, wt := g.Transposed(), tc.want.Transposed()
		for v := uint32(0); int(v) < g.N(); v++ {
			if !slices.Equal(gt.OutNghSlice(v), wt.OutNghSlice(v)) || !slices.Equal(gt.OutWeightSlice(v), wt.OutWeightSlice(v)) {
				t.Fatalf("%s: in-neighbours differ at %d", tc.file, v)
			}
		}
		mustNotLoad(t, tc.file+" on checked reader", decodeChecked, b)
	}
}

// The one writer reproduces the GBBSBIN2 fixture byte for byte, so
// snapshots already on disk stay readable and byte-comparable.
func TestWriteBinaryMatchesV2Fixture(t *testing.T) {
	want := fixture(t, fixtureV2IO)
	if !bytes.Equal(binBytes(t, testGraphForIO()), want) {
		t.Fatal("writer output differs from the GBBSBIN2 fixture")
	}
	g, err := decodeChecked(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(binBytes(t, g), want) {
		t.Fatal("GBBSBIN2 fixture does not re-encode to itself")
	}
}

func TestBinaryRejectsCorruption(t *testing.T) {
	// The directed fixture is unweighted, so its last word is an edge.
	good := fixture(t, fixtureV1Directed)
	cases := [][]byte{
		{},
		good[:4],
		append([]byte("NOTMAGIC"), good[8:]...),
		good[:len(good)-3], // truncated edges
	}
	for i, c := range cases {
		if _, err := ReadBinary(sched, bytes.NewReader(c)); err == nil {
			t.Fatalf("case %d: corrupt input accepted", i)
		}
	}
	// Edge target out of range.
	bad := slices.Clone(good)
	bad[len(bad)-4] = 0xff
	bad[len(bad)-3] = 0xff
	bad[len(bad)-2] = 0xff
	bad[len(bad)-1] = 0xff
	if _, err := ReadBinary(sched, bytes.NewReader(bad)); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
}

func TestBinaryEmptyGraph(t *testing.T) {
	g := emptyGraph()
	var buf bytes.Buffer
	if err := WriteBinaryChecked(&buf, g); err != nil {
		t.Fatal(err)
	}
	h, err := ReadBinary(sched, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if h.N() != 7 || h.M() != 0 {
		t.Fatalf("empty round trip n=%d m=%d", h.N(), h.M())
	}
}

// A header alone must not buy an allocation: a file of a few bytes that
// declares n = 2^27 is rejected after allocating far less than the 1 GiB
// its offsets section would take, in either binary layout or as text.
func TestReadBinaryBoundsAllocationByData(t *testing.T) {
	hdr := func(magic string) []byte {
		b := []byte(magic)
		b = binary.LittleEndian.AppendUint32(b, binSymmetric)
		b = binary.LittleEndian.AppendUint64(b, 1<<27)
		return binary.LittleEndian.AppendUint64(b, 0)
	}
	v1 := hdr("GBBSBIN1")
	v2 := hdr("GBBSBIN2")
	v2 = binary.LittleEndian.AppendUint32(v2, crc32.Checksum(v2[8:], castagnoli))
	text := []byte("AdjacencyGraph\n134217728\n0\n0\n")
	decodeText := func(b []byte) (*CSR, error) { return ReadAdjacency(sched, bytes.NewReader(b), true) }
	for _, tc := range []struct {
		b      []byte
		decode func([]byte) (*CSR, error)
	}{{v1, decodePlain}, {v2, decodePlain}, {v2, decodeChecked}, {text, decodeText}} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := tc.decode(tc.b)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s: %d-byte file declaring n=2^27 accepted", tc.b[:8], len(tc.b))
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 16<<20 {
			t.Fatalf("%s: %d-byte file allocated %d MiB before failing", tc.b[:8], len(tc.b), alloc>>20)
		}
	}
}

// FuzzReadBinary drives the binary decoder with arbitrary files: it must
// never panic, every graph either reader accepts passes checkLoaded, and any
// file the strict reader accepts must re-encode to exactly the same bytes
// (so no two distinct files decode to one graph).
func FuzzReadBinary(f *testing.F) {
	for _, name := range []string{fixtureV1WeightedSymmetric, fixtureV1Directed, fixtureV2IO} {
		f.Add(fixture(f, name))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if g, err := ReadBinary(sched, bytes.NewReader(b)); err == nil {
			checkLoaded(t, g)
		}
		g, err := ReadBinaryChecked(sched, bytes.NewReader(b))
		if err != nil {
			return
		}
		if !bytes.Equal(binBytes(t, g), b) {
			t.Fatal("accepted GBBSBIN2 file does not re-encode to the same bytes")
		}
	})
}
