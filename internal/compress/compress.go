package compress

import (
	"encoding/binary"

	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/prims"
)

// DefaultBlockSize is the number of neighbors per parallel-byte block.
const DefaultBlockSize = 64

// Graph is a parallel-byte compressed graph. The out-direction is always
// present; a directed graph also holds the in-direction as its linked
// transpose, which dense edgeMap, SCC and BC read through Transpose.
//
// Per-vertex layout in data (for degree d > 0, nb = ceil(d/blockSize)
// blocks): (nb-1) little-endian uint32 byte-offsets of blocks 1..nb-1
// relative to the end of the offset table, followed by the blocks. Each
// block difference-encodes its neighbors: the first as a zigzag varint
// relative to the source vertex, the rest as plain varint gaps (adjacency
// is sorted and duplicate-free). Weighted graphs interleave each neighbor's
// weight as a zigzag varint.
type Graph struct {
	n         int
	m         int
	weighted  bool
	symmetric bool
	blockSize int
	degrees   []int32
	offsets   []int64 // byte offset of each vertex's region in data
	data      []byte
	inG       *Graph // transpose of a directed graph; nil when symmetric
}

// FromCSR compresses a CSR graph on scheduler s. blockSize <= 0 selects
// DefaultBlockSize. s.Poll() is checked between the encoding phases so a
// compression on a context-attached scheduler aborts promptly after
// cancellation.
func FromCSR(s *parallel.Scheduler, g *graph.CSR, blockSize int) *Graph {
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	out := encodeDirection(s, g.N(), blockSize, g.Weighted(),
		func(v uint32) []uint32 { return g.OutNghSlice(v) },
		func(v uint32) []int32 { return g.OutWeightSlice(v) })
	out.symmetric = g.Symmetric()
	out.m = g.M()
	if !g.Symmetric() {
		s.Poll()
		tr := g.Transposed()
		in := encodeDirection(s, g.N(), blockSize, g.Weighted(),
			func(v uint32) []uint32 { return tr.OutNghSlice(v) },
			func(v uint32) []int32 { return tr.OutWeightSlice(v) })
		in.symmetric = false
		in.m = g.M()
		out.inG = in
		in.inG = out
	}
	return out
}

// encodeDirection builds one direction of the compressed graph with a
// size-measuring pass, a scan, and a parallel encoding pass.
func encodeDirection(s *parallel.Scheduler, n, blockSize int, weighted bool, nghs func(uint32) []uint32, wts func(uint32) []int32) *Graph {
	g := &Graph{n: n, weighted: weighted, blockSize: blockSize}
	g.degrees = make([]int32, n)
	sizes := make([]int64, n)
	s.Poll()
	s.ForRange(n, 64, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			ns := nghs(uint32(v))
			var ws []int32
			if weighted {
				ws = wts(uint32(v))
			}
			g.degrees[v] = int32(len(ns))
			sizes[v] = int64(encodedSize(uint32(v), ns, ws, blockSize))
		}
	})
	g.offsets = make([]int64, n+1)
	total := prims.Scan(s, sizes, g.offsets[:n])
	g.offsets[n] = total
	g.data = make([]byte, total)
	s.Poll()
	s.ForRange(n, 64, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			ns := nghs(uint32(v))
			if len(ns) == 0 {
				continue
			}
			var ws []int32
			if weighted {
				ws = wts(uint32(v))
			}
			encodeVertex(g.data[g.offsets[v]:g.offsets[v]:g.offsets[v+1]], uint32(v), ns, ws, blockSize)
		}
	})
	return g
}

func numBlocks(d, bs int) int { return (d + bs - 1) / bs }

// encodedSize measures the byte length of a vertex's encoded region.
func encodedSize(v uint32, ns []uint32, ws []int32, bs int) int {
	d := len(ns)
	if d == 0 {
		return 0
	}
	nb := numBlocks(d, bs)
	size := 4 * (nb - 1)
	for b := 0; b < nb; b++ {
		lo := b * bs
		hi := min(d, lo+bs)
		size += uvarintLen(zigzag(int64(ns[lo]) - int64(v)))
		if ws != nil {
			size += uvarintLen(zigzag(int64(ws[lo])))
		}
		for i := lo + 1; i < hi; i++ {
			size += uvarintLen(uint64(ns[i] - ns[i-1]))
			if ws != nil {
				size += uvarintLen(zigzag(int64(ws[i])))
			}
		}
	}
	return size
}

// encodeVertex writes the vertex's region into buf (len 0, cap = region
// size).
func encodeVertex(buf []byte, v uint32, ns []uint32, ws []int32, bs int) {
	d := len(ns)
	nb := numBlocks(d, bs)
	// Reserve the block-offset table; fill it as blocks are laid down.
	buf = buf[:4*(nb-1)]
	for b := 0; b < nb; b++ {
		if b > 0 {
			binary.LittleEndian.PutUint32(buf[4*(b-1):], uint32(len(buf)-4*(nb-1)))
		}
		lo := b * bs
		hi := min(d, lo+bs)
		buf = putUvarint(buf, zigzag(int64(ns[lo])-int64(v)))
		if ws != nil {
			buf = putUvarint(buf, zigzag(int64(ws[lo])))
		}
		for i := lo + 1; i < hi; i++ {
			buf = putUvarint(buf, uint64(ns[i]-ns[i-1]))
			if ws != nil {
				buf = putUvarint(buf, zigzag(int64(ws[i])))
			}
		}
	}
	if len(buf) != cap(buf) {
		// The measuring pass and the encoder disagreeing would silently
		// corrupt neighboring regions via append reallocation.
		panic("compress: encoded size mismatch")
	}
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of directed edges stored.
func (g *Graph) M() int { return g.m }

// Weighted reports whether edges carry weights.
func (g *Graph) Weighted() bool { return g.weighted }

// Symmetric reports whether the graph is symmetric.
func (g *Graph) Symmetric() bool { return g.symmetric }

// OutDeg returns the out-degree of v.
func (g *Graph) OutDeg(v uint32) int { return int(g.degrees[v]) }

// SizeBytes returns the byte size of this direction's encoded adjacency
// data (the quantity behind the paper's "1.5 bytes per edge").
func (g *Graph) SizeBytes() int64 { return int64(len(g.data)) }

// BytesPerEdge reports the compression ratio of the out-direction.
func (g *Graph) BytesPerEdge() float64 {
	if g.m == 0 {
		return 0
	}
	return float64(len(g.data)) / float64(g.m)
}

// blockStart returns the byte index (into data) where block b of vertex v
// begins, using the block-offset table for b > 0.
func (g *Graph) blockStart(v uint32, nb, b int) int {
	base := int(g.offsets[v])
	tbl := 4 * (nb - 1)
	if b == 0 {
		return base + tbl
	}
	rel := binary.LittleEndian.Uint32(g.data[base+4*(b-1):])
	return base + tbl + int(rel)
}

// decodeBlock iterates block b of vertex v, calling f with each (neighbor,
// weight); returns false early if f does.
func (g *Graph) decodeBlock(v uint32, d, nb, b int, f func(u uint32, w int32) bool) bool {
	i := g.blockStart(v, nb, b)
	lo := b * g.blockSize
	hi := min(d, lo+g.blockSize)
	var raw uint64
	raw, i = uvarint(g.data, i)
	prev := uint32(int64(v) + unzigzag(raw))
	w := int32(1)
	if g.weighted {
		raw, i = uvarint(g.data, i)
		w = int32(unzigzag(raw))
	}
	if !f(prev, w) {
		return false
	}
	for k := lo + 1; k < hi; k++ {
		raw, i = uvarint(g.data, i)
		prev += uint32(raw)
		if g.weighted {
			raw, i = uvarint(g.data, i)
			w = int32(unzigzag(raw))
		}
		if !f(prev, w) {
			return false
		}
	}
	return true
}

// OutNgh iterates v's out-neighbors in order, stopping early if f returns
// false.
func (g *Graph) OutNgh(v uint32, f func(u uint32, w int32) bool) {
	d := int(g.degrees[v])
	if d == 0 {
		return
	}
	nb := numBlocks(d, g.blockSize)
	for b := 0; b < nb; b++ {
		if !g.decodeBlock(v, d, nb, b, f) {
			return
		}
	}
}

// OutRange iterates the out-neighbors at adjacency positions [lo, hi),
// skipping directly to the containing block (this positional access is what
// edgeMapBlocked needs; it is why the parallel-byte format stores per-block
// offsets).
func (g *Graph) OutRange(v uint32, lo, hi int, f func(u uint32, w int32) bool) {
	d := int(g.degrees[v])
	if lo >= hi || d == 0 {
		return
	}
	if hi > d {
		hi = d
	}
	nb := numBlocks(d, g.blockSize)
	stopped := false
	for b := lo / g.blockSize; b < nb && b*g.blockSize < hi && !stopped; b++ {
		pos := b * g.blockSize
		g.decodeBlock(v, d, nb, b, func(u uint32, w int32) bool {
			if pos >= hi {
				return false
			}
			if pos >= lo && !f(u, w) {
				stopped = true
				return false
			}
			pos++
			return true
		})
	}
}

// DecodeOut decodes v's out-neighbors into buf (reusing its capacity) and
// returns the slice.
func (g *Graph) DecodeOut(v uint32, buf []uint32) []uint32 {
	buf = buf[:0]
	g.OutNgh(v, func(u uint32, _ int32) bool {
		buf = append(buf, u)
		return true
	})
	return buf
}

// Transpose returns the reversed-direction view: itself when symmetric,
// otherwise the linked transpose.
func (g *Graph) Transpose() graph.Graph {
	if g.symmetric {
		return g
	}
	return g.inG
}

var _ graph.Graph = (*Graph)(nil)
