package graph

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"
)

// failWriter errors after accepting limit bytes, injecting mid-stream write
// failures.
type failWriter struct {
	limit int
	n     int
}

var errDisk = errors.New("disk full")

func (f *failWriter) Write(p []byte) (int, error) {
	if f.n+len(p) > f.limit {
		can := f.limit - f.n
		if can < 0 {
			can = 0
		}
		f.n += can
		return can, errDisk
	}
	f.n += len(p)
	return len(p), nil
}

func testGraphForIO() *CSR {
	el := &EdgeList{N: 100, U: make([]uint32, 0, 200), V: make([]uint32, 0, 200), W: make([]int32, 0, 200)}
	for i := 0; i < 99; i++ {
		el.Add(uint32(i), uint32(i+1), int32(i%7+1))
	}
	return FromEdgeList(sched, 100, el, BuildOptions{Symmetrize: true})
}

// directedPathGraph is a directed, unweighted path: its file has no weights
// section and its load links a built transpose.
func directedPathGraph() *CSR {
	el := &EdgeList{N: 10}
	for i := 0; i < 9; i++ {
		el.Add(uint32(i), uint32(i+1), 0)
	}
	return FromEdgeList(sched, 10, el, BuildOptions{})
}

func emptyGraph() *CSR {
	return FromEdgeList(sched, 7, &EdgeList{N: 7}, BuildOptions{Symmetrize: true})
}

// ioShapes are the graphs the binary codec's failure tests run over: one
// per section layout (weighted, unweighted, empty sections).
func ioShapes() []struct {
	name string
	g    *CSR
} {
	return []struct {
		name string
		g    *CSR
	}{
		{"weighted-symmetric", testGraphForIO()},
		{"directed-unweighted", directedPathGraph()},
		{"empty", emptyGraph()},
	}
}

func TestWriteAdjacencyPropagatesWriteErrors(t *testing.T) {
	g := testGraphForIO()
	for _, limit := range []int{0, 5, 50, 500} {
		if err := WriteAdjacency(&failWriter{limit: limit}, g); !errors.Is(err, errDisk) {
			t.Fatalf("limit %d: error %v, want disk error", limit, err)
		}
	}
}

func TestWriteBinaryPropagatesWriteErrors(t *testing.T) {
	g := testGraphForIO()
	for _, limit := range []int{0, 7, 100, 1000} {
		if err := WriteBinaryChecked(&failWriter{limit: limit}, g); !errors.Is(err, errDisk) {
			t.Fatalf("limit %d: error %v, want disk error", limit, err)
		}
	}
}

// binBytes serializes g in the binary format.
func binBytes(t *testing.T, g *CSR) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteBinaryChecked(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// mustNotLoad asserts that decoding b fails with an error — and, above all,
// does not panic or return a graph.
func mustNotLoad(t *testing.T, what string, decode func([]byte) (*CSR, error), b []byte) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("%s: decode panicked: %v", what, r)
		}
	}()
	if g, err := decode(b); err == nil {
		t.Fatalf("%s: decode succeeded (n=%d), want error", what, g.N())
	}
}

func decodePlain(b []byte) (*CSR, error) {
	return ReadBinary(sched, bytes.NewReader(b))
}

func decodeChecked(b []byte) (*CSR, error) {
	return ReadBinaryChecked(sched, bytes.NewReader(b))
}

func TestReadBinaryCheckedRoundTrip(t *testing.T) {
	sym := testGraphForIO()
	g, err := ReadBinaryChecked(sched, bytes.NewReader(binBytes(t, sym)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(binBytes(t, g), binBytes(t, sym)) {
		t.Fatal("checked round trip is not byte-identical")
	}

	// A directed graph exercises the transpose built on load.
	dir := directedPathGraph()
	g, err = ReadBinaryChecked(sched, bytes.NewReader(binBytes(t, dir)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(binBytes(t, g), binBytes(t, dir)) {
		t.Fatal("directed checked round trip is not byte-identical")
	}
}

// Every prefix of a binary file must be rejected, by either reader:
// truncation can strike any byte and the loader must never return a
// partial graph.
func TestReadBinaryCheckedRejectsTruncation(t *testing.T) {
	for _, shape := range ioShapes() {
		full := binBytes(t, shape.g)
		for n := 0; n < len(full); n++ {
			mustNotLoad(t, shape.name+" truncated at "+itoa(n), decodeChecked, full[:n])
			mustNotLoad(t, shape.name+" truncated at "+itoa(n)+" (plain reader)", decodePlain, full[:n])
		}
	}
}

// Every single-bit flip anywhere in a binary file must be detected — this
// is the whole point of the per-section checksums. (The legacy GBBSBIN1
// format only catches flips that break a structural invariant.)
func TestReadBinaryCheckedRejectsBitFlips(t *testing.T) {
	for _, shape := range ioShapes() {
		full := binBytes(t, shape.g)
		for i := range full {
			mut := append([]byte(nil), full...)
			mut[i] ^= 0x10
			mustNotLoad(t, shape.name+" bit flip at byte "+itoa(i), decodeChecked, mut)
		}
	}
}

// Checked binary header layout, for field-targeted corruption:
//
//	0..8   magic
//	8..12  flags
//	12..20 n
//	20..28 m
//	28..32 header CRC
const checkedHdrOff, checkedHdrLen, checkedCRCOff = 8, 20, 28

// patchCheckedHeader mutates header fields and recomputes the header CRC, so
// corruption must be caught by structural validation, not the checksum.
func patchCheckedHeader(b []byte, patch func(hdr []byte)) []byte {
	mut := append([]byte(nil), b...)
	patch(mut[checkedHdrOff : checkedHdrOff+checkedHdrLen])
	sum := crc32.Checksum(mut[checkedHdrOff:checkedHdrOff+checkedHdrLen], castagnoli)
	binary.LittleEndian.PutUint32(mut[checkedCRCOff:], sum)
	return mut
}

// Field-targeted header corruption with a valid checksum: structural
// validation must still reject what the CRC cannot.
func TestReadBinaryCheckedRejectsBadHeaderFields(t *testing.T) {
	full := binBytes(t, testGraphForIO())
	cases := []struct {
		name  string
		patch func(hdr []byte)
	}{
		{"unknown flag bits", func(h []byte) { binary.LittleEndian.PutUint32(h[0:], 1|2|8) }},
		{"implausible n", func(h []byte) { binary.LittleEndian.PutUint64(h[4:], 1<<40) }},
		{"n shrunk", func(h []byte) { binary.LittleEndian.PutUint64(h[4:], 3) }},
		{"m shrunk", func(h []byte) { binary.LittleEndian.PutUint64(h[12:], 1) }},
		{"m grown", func(h []byte) { binary.LittleEndian.PutUint64(h[12:], 1<<30) }},
		{"weighted flag cleared", func(h []byte) { binary.LittleEndian.PutUint32(h[0:], 2) }},
	}
	for _, tc := range cases {
		mustNotLoad(t, tc.name, decodeChecked, patchCheckedHeader(full, tc.patch))
	}
	mustNotLoad(t, "wrong magic", decodeChecked, append([]byte("GBBSBIN9"), full[8:]...))
	// The legacy format's magic must not load as checked; the checked
	// format is what the plain reader reads first.
	mustNotLoad(t, "plain magic on checked reader", decodeChecked, fixture(t, fixtureV1WeightedSymmetric))
	if g, err := decodePlain(full); err != nil {
		t.Fatalf("checked magic on plain reader: %v", err)
	} else if !bytes.Equal(binBytes(t, g), full) {
		t.Fatal("checked magic on plain reader: decoded graph re-encodes differently")
	}
}

// Readers never sort, and every algorithm assumes sorted adjacency, so both
// binary readers refuse a directed file with an unsorted list
// (TestReadersRejectUnsortedAdjacency covers the other formats). Equal
// targets are not out of order: a sorted list with duplicates loads with
// its stored order and weights.
func TestReadBinaryRejectsUnsortedDirectedAdjacency(t *testing.T) {
	unsorted := binBytes(t, &CSR{n: 3, offsets: []int64{0, 2, 2, 2}, edges: []uint32{2, 1}})
	mustNotLoad(t, "unsorted directed adjacency", decodeChecked, unsorted)
	mustNotLoad(t, "unsorted directed adjacency (plain reader)", decodePlain, unsorted)
	dups := binBytes(t, &CSR{n: 3, offsets: []int64{0, 2, 2, 2}, edges: []uint32{1, 1}, weights: []int32{5, 3}})
	g, err := decodeChecked(dups)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(binBytes(t, g), dups) {
		t.Fatal("directed adjacency with duplicate targets re-encodes differently")
	}
}

// Legacy GBBSBIN1 header layout: 0..8 magic, 8..12 flags, 12..20 n, 20..28
// m. The legacy format has no checksums, so only structural corruption is
// detectable — this table pins down that every validated field stays
// validated.
func TestReadBinaryRejectsBadHeaderFields(t *testing.T) {
	full := fixture(t, fixtureV1WeightedSymmetric)
	n := weightedSymmetricGraph().N()
	patch := func(b []byte, off int, put func([]byte)) []byte {
		mut := append([]byte(nil), b...)
		put(mut[off:])
		return mut
	}
	cases := []struct {
		name string
		mut  []byte
	}{
		{"wrong magic", append([]byte("NOTAGRPH"), full[8:]...)},
		{"implausible n", patch(full, 12, func(b []byte) { binary.LittleEndian.PutUint64(b, 1<<40) })},
		{"m beyond data", patch(full, 20, func(b []byte) { binary.LittleEndian.PutUint64(b, 1<<30) })},
		{"offset out of range", patch(full, 28, func(b []byte) { binary.LittleEndian.PutUint64(b, 1<<50) })},
		{"offsets decreasing", patch(full, 28+16, func(b []byte) { binary.LittleEndian.PutUint64(b, 0) })},
	}
	// Decreasing-offsets case: offsets[0] is always 0, so write a large value
	// there and a smaller one after it.
	cases[4].mut = patch(cases[4].mut, 28, func(b []byte) { binary.LittleEndian.PutUint64(b, 2) })
	for _, tc := range cases {
		mustNotLoad(t, tc.name, decodePlain, tc.mut)
	}
	for k := 0; k < 36; k++ {
		mustNotLoad(t, "header truncated at "+itoa(k), decodePlain, full[:k])
	}
	// Edge target out of range: the first edge word sits right after the
	// offsets section.
	edgeOff := 28 + (n+1)*8
	mustNotLoad(t, "edge target out of range", decodePlain,
		patch(full, edgeOff, func(b []byte) { binary.LittleEndian.PutUint32(b, 1<<20) }))
}

// itoa avoids importing strconv just for test labels.
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

func TestWriteSucceedsWithExactBudget(t *testing.T) {
	for _, shape := range ioShapes() {
		// Find the exact size, then verify a writer with exactly that budget
		// succeeds (no off-by-one in the error paths).
		probe := &failWriter{limit: 1 << 30}
		if err := WriteBinaryChecked(probe, shape.g); err != nil {
			t.Fatal(err)
		}
		if err := WriteBinaryChecked(&failWriter{limit: probe.n}, shape.g); err != nil {
			t.Fatalf("%s: exact-budget write failed: %v", shape.name, err)
		}
		if err := WriteBinaryChecked(&failWriter{limit: probe.n - 1}, shape.g); !errors.Is(err, errDisk) {
			t.Fatalf("%s: one-byte-short write did not error", shape.name)
		}
	}
}
