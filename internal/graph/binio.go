package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/parallel"
)

// Binary graph format: a compact serialization of CSR graphs, the practical
// storage format for the benchmark's larger inputs (the text
// AdjacencyGraph format parses at ~10MB/s; this loads at memory bandwidth)
// and the on-disk snapshot format of the persistent graph store. CRC32C
// (Castagnoli) checksums over the header and every section detect
// truncated, torn, or bit-flipped files at load time instead of silently
// producing a corrupt graph.
//
// Layout (little-endian):
//
//	magic      [8]byte  "GBBSBIN2"
//	flags      uint32   bit0 weighted, bit1 symmetric
//	n          uint64
//	m          uint64
//	headerCRC  uint32   CRC32C of the 20 header bytes (flags, n, m)
//	offsets    [n+1]int64
//	offsetsCRC uint32   CRC32C of the offsets bytes
//	edges      [m]uint32
//	edgesCRC   uint32   CRC32C of the edges bytes
//	weights    [m]int32 (weighted only)
//	weightsCRC uint32   (weighted only)
//
// The legacy GBBSBIN1 layout is the same without the four CRC fields. It is
// never written; ReadBinary still decodes it, with only the structural
// checks (no flag-bit check, trailing bytes ignored).

var (
	binMagic1 = [8]byte{'G', 'B', 'B', 'S', 'B', 'I', 'N', '1'}
	binMagic2 = [8]byte{'G', 'B', 'B', 'S', 'B', 'I', 'N', '2'}
)

// castagnoli is the CRC32C polynomial table of the binary graph format.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// binChunk is the section codec's unit: sections are encoded and decoded
// binChunk bytes at a time, with one CRC update per chunk.
const binChunk = 64 << 10

const (
	binWeighted  = 1
	binSymmetric = 2
)

// binWord is the element type of a section.
type binWord interface{ int64 | uint32 | int32 }

// WriteBinaryChecked serializes g in the binary graph format (GBBSBIN2, the
// only version written). Write errors are sticky in the bufio.Writer, so the
// final Flush reports the first one.
func WriteBinaryChecked(w io.Writer, g *CSR) error {
	bw := bufio.NewWriterSize(w, binChunk)
	buf := make([]byte, 0, binChunk)
	flags := uint32(0)
	if g.Weighted() {
		flags |= binWeighted
	}
	if g.Symmetric() {
		flags |= binSymmetric
	}
	hdr := append(buf, binMagic2[:]...)
	hdr = binary.LittleEndian.AppendUint32(hdr, flags)
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(g.n))
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(len(g.edges)))
	hdr = binary.LittleEndian.AppendUint32(hdr, crc32.Checksum(hdr[8:], castagnoli))
	bw.Write(hdr)
	writeSection(bw, buf, g.offsets)
	writeSection(bw, buf, g.edges)
	if g.Weighted() {
		writeSection(bw, buf, g.weights)
	}
	return bw.Flush()
}

// writeSection encodes xs a chunk at a time through buf, then writes the
// CRC32C of the encoded bytes. It stops at the first write error, which bw
// keeps for its Flush.
func writeSection[T binWord](bw *bufio.Writer, buf []byte, xs []T) {
	per := cap(buf) / binary.Size(*new(T))
	sum := uint32(0)
	for len(xs) > 0 {
		k := min(len(xs), per)
		b, _ := binary.Append(buf[:0], binary.LittleEndian, xs[:k]) // cannot fail for a binWord slice
		sum = crc32.Update(sum, castagnoli, b)
		if _, err := bw.Write(b); err != nil {
			return
		}
		xs = xs[k:]
	}
	bw.Write(binary.LittleEndian.AppendUint32(buf[:0], sum))
}

// ReadBinaryChecked parses the binary graph format, accepting only
// GBBSBIN2: the header and per-section CRC32C checksums are verified
// alongside the structural checks, and every adjacency list must be
// non-decreasing. Directed graphs get their transpose built and linked on
// scheduler s.
func ReadBinaryChecked(s *parallel.Scheduler, r io.Reader) (*CSR, error) {
	return readBinary(s, r, false)
}

// ReadBinary parses the binary graph format: GBBSBIN2 exactly as
// ReadBinaryChecked does, or a legacy GBBSBIN1 file with structural checks
// only. Either way every adjacency list must be non-decreasing, and
// directed graphs get their transpose built and linked on scheduler s.
func ReadBinary(s *parallel.Scheduler, r io.Reader) (*CSR, error) {
	return readBinary(s, r, true)
}

func readBinary(s *parallel.Scheduler, r io.Reader, legacy bool) (*CSR, error) {
	var hdr [32]byte // magic, flags, n, m, header CRC (GBBSBIN2 only)
	if _, err := io.ReadFull(r, hdr[:28]); err != nil {
		return nil, fmt.Errorf("graph: truncated binary header: %w", err)
	}
	magic := [8]byte(hdr[:8])
	checked := magic == binMagic2
	if !checked && (!legacy || magic != binMagic1) {
		return nil, fmt.Errorf("graph: bad binary magic %q", magic[:])
	}
	if checked {
		if _, err := io.ReadFull(r, hdr[28:]); err != nil {
			return nil, fmt.Errorf("graph: truncated header checksum: %w", err)
		}
		if err := crcMatch("header", binary.LittleEndian.Uint32(hdr[28:]), crc32.Checksum(hdr[8:28], castagnoli)); err != nil {
			return nil, err
		}
	}
	flags := binary.LittleEndian.Uint32(hdr[8:])
	n := int(binary.LittleEndian.Uint64(hdr[12:]))
	m := int(binary.LittleEndian.Uint64(hdr[20:]))
	if unknown := flags &^ (binWeighted | binSymmetric); checked && unknown != 0 {
		return nil, fmt.Errorf("graph: unknown flag bits %#x in binary header", unknown)
	}
	if n < 0 || m < 0 || n > 1<<32 {
		return nil, fmt.Errorf("graph: implausible binary sizes n=%d m=%d", n, m)
	}
	buf := make([]byte, binChunk)
	offsets, err := readSection(r, buf, n+1, "offsets", checked, func(xs []int64, from int) error {
		for i := from; i < len(xs); i++ {
			if xs[i] > int64(m) || (i == 0 && xs[i] != 0) || (i > 0 && xs[i] < xs[i-1]) {
				return fmt.Errorf("graph: corrupt offsets at %d", i)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if offsets[n] != int64(m) {
		return nil, fmt.Errorf("graph: final offset %d != m %d", offsets[n], m)
	}
	edges, err := readSection(r, buf, m, "edges", checked, func(xs []uint32, from int) error {
		for _, e := range xs[from:] {
			if int(e) >= n {
				return fmt.Errorf("graph: edge target %d out of range", e)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var weights []int32
	if flags&binWeighted != 0 {
		if weights, err = readSection[int32](r, buf, m, "weights", checked, nil); err != nil {
			return nil, err
		}
	}
	// GBBSBIN2 owns the rest of its stream: trailing bytes mean the header
	// lied about the section sizes (or the file was corrupted in a way that
	// happened to keep every checksum valid), so reject them.
	if checked {
		if _, err := io.ReadFull(r, buf[:1]); err != io.EOF {
			return nil, fmt.Errorf("graph: trailing garbage after binary graph")
		}
	}
	return validated(s, &CSR{n: n, offsets: offsets, edges: edges, weights: weights, symmetric: flags&binSymmetric != 0})
}

// readSection decodes a section of count elements a chunk at a time through
// buf, calling valid (if non-nil) on each newly decoded chunk xs[from:], and
// with checked verifies the trailing CRC32C. The result grows geometrically
// as chunks arrive, capped at count, so a header's sizes never drive an
// allocation the stream does not back, and an honest section still ends in
// an exactly-sized slice.
func readSection[T binWord](r io.Reader, buf []byte, count int, name string, checked bool, valid func(xs []T, from int) error) ([]T, error) {
	size := binary.Size(*new(T))
	per := len(buf) / size
	xs := make([]T, 0, min(count, per))
	sum := uint32(0)
	for len(xs) < count {
		from := len(xs)
		k := min(count-from, per)
		b := buf[:k*size]
		if _, err := io.ReadFull(r, b); err != nil {
			return nil, fmt.Errorf("graph: truncated %s section: %w", name, err)
		}
		if checked {
			sum = crc32.Update(sum, castagnoli, b)
		}
		xs = growCapped(xs, from+k, count)[:from+k]
		binary.Decode(b, binary.LittleEndian, xs[from:]) // len(b) fits xs[from:] exactly
		if valid != nil {
			if err := valid(xs, from); err != nil {
				return nil, err
			}
		}
	}
	if checked {
		if _, err := io.ReadFull(r, buf[:4]); err != nil {
			return nil, fmt.Errorf("graph: truncated %s checksum: %w", name, err)
		}
		if err := crcMatch(name, binary.LittleEndian.Uint32(buf), sum); err != nil {
			return nil, err
		}
	}
	return xs, nil
}

// growCapped returns xs with capacity for need elements, at least doubling
// it but never past limit. Readers grow their arrays through it as data
// arrives, so a header's sizes never drive an allocation the stream does
// not back, and an honest stream still ends in an exactly-sized slice.
func growCapped[T any](xs []T, need, limit int) []T {
	if need <= cap(xs) {
		return xs
	}
	grown := make([]T, len(xs), min(limit, max(2*cap(xs), need)))
	copy(grown, xs)
	return grown
}

// crcMatch compares a stored checksum to the computed one, naming the
// section in the error.
func crcMatch(section string, stored, computed uint32) error {
	if stored != computed {
		return fmt.Errorf("graph: %s checksum mismatch: stored %08x, computed %08x", section, stored, computed)
	}
	return nil
}
