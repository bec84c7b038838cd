package graph

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"strconv"

	"repro/internal/parallel"
	"repro/internal/prims"
)

// This file implements the text adjacency-graph format used by Ligra and the
// PBBS inputs the paper builds on:
//
//	AdjacencyGraph          (or WeightedAdjacencyGraph)
//	<n>
//	<m>
//	<offset 0> ... <offset n-1>
//	<edge 0> ... <edge m-1>
//	[<weight 0> ... <weight m-1>]    (weighted form only)
//
// The benchmark's I/O contract in the paper specifies inputs in this format
// (or its compressed binary variant); cmd/gbbs-gen writes it, and the
// "file:" source spec (gbbs.AdjacencyFile) reads it.

const (
	headerUnweighted = "AdjacencyGraph"
	headerWeighted   = "WeightedAdjacencyGraph"
)

// WriteAdjacency writes g's out-edges in adjacency-graph format.
func WriteAdjacency(w io.Writer, g *CSR) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	header := headerUnweighted
	if g.Weighted() {
		header = headerWeighted
	}
	if _, err := fmt.Fprintf(bw, "%s\n%d\n%d\n", header, g.n, len(g.edges)); err != nil {
		return err
	}
	buf := make([]byte, 0, 24)
	writeInt := func(v int64) error {
		buf = strconv.AppendInt(buf[:0], v, 10)
		buf = append(buf, '\n')
		_, err := bw.Write(buf)
		return err
	}
	for v := 0; v < g.n; v++ {
		if err := writeInt(g.offsets[v]); err != nil {
			return err
		}
	}
	for _, e := range g.edges {
		if err := writeInt(int64(e)); err != nil {
			return err
		}
	}
	if g.Weighted() {
		for _, wt := range g.weights {
			if err := writeInt(int64(wt)); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadAdjacency parses an adjacency-graph stream into a CSR graph. symmetric
// declares whether the file stores a symmetric graph (the format itself does
// not record this). Every adjacency list must be non-decreasing; a directed
// graph's transpose is then built and linked on scheduler s.
func ReadAdjacency(s *parallel.Scheduler, r io.Reader, symmetric bool) (*CSR, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	sc.Split(bufio.ScanWords)
	next := func() (string, error) {
		if !sc.Scan() {
			if err := sc.Err(); err != nil {
				return "", err
			}
			return "", io.ErrUnexpectedEOF
		}
		return sc.Text(), nil
	}
	header, err := next()
	if err != nil {
		return nil, err
	}
	weighted := false
	switch header {
	case headerUnweighted:
	case headerWeighted:
		weighted = true
	default:
		return nil, fmt.Errorf("graph: unknown header %q", header)
	}
	nextInt := func() (int64, error) {
		s, err := next()
		if err != nil {
			return 0, err
		}
		return strconv.ParseInt(s, 10, 64)
	}
	n64, err := nextInt()
	if err != nil {
		return nil, err
	}
	m64, err := nextInt()
	if err != nil {
		return nil, err
	}
	n, m := int(n64), int(m64)
	if n < 0 || m < 0 || n > 1<<32 {
		return nil, fmt.Errorf("graph: implausible sizes n=%d m=%d", n, m)
	}
	var offsets []int64
	for v := 0; v < n; v++ {
		o, err := nextInt()
		if err != nil {
			return nil, err
		}
		if o > int64(m) || (v == 0 && o != 0) || (v > 0 && o < offsets[v-1]) {
			return nil, fmt.Errorf("graph: offset %d of vertex %d out of order or range", o, v)
		}
		offsets = append(growCapped(offsets, v+1, n+1), o)
	}
	offsets = append(growCapped(offsets, n+1, n+1), int64(m))
	var edges []uint32
	for i := 0; i < m; i++ {
		e, err := nextInt()
		if err != nil {
			return nil, err
		}
		if e < 0 || e >= int64(n) {
			return nil, fmt.Errorf("graph: edge target %d out of range", e)
		}
		edges = append(growCapped(edges, i+1, m), uint32(e))
	}
	var weights []int32
	if weighted {
		weights = make([]int32, m) // m edges were read, so m is backed
		for i := 0; i < m; i++ {
			w, err := nextInt()
			if err != nil {
				return nil, err
			}
			if w != int64(int32(w)) {
				return nil, fmt.Errorf("graph: weight %d of edge %d outside int32", w, i)
			}
			weights[i] = int32(w)
		}
	}
	return validated(s, &CSR{n: n, offsets: offsets, edges: edges, weights: weights, symmetric: symmetric})
}

// validated finishes every reader on the CSR it decoded. Readers never sort,
// so it checks in one parallel pass on s that each adjacency list is
// non-decreasing (HasEdge's binary search, Overlay's merge and triangle
// counting's skip of repeated edges rely on it) and, when the graph claims
// to be symmetric, that every edge (v, u) has its reverse (u, v) with an
// equal weight, since a symmetric graph serves as its own transpose. Then it
// links a directed graph's transpose. The error names the first offending
// vertex; an unsorted list is reported before a missing reverse, which the
// binary search in an unsorted list could have missed.
func validated(s *parallel.Scheduler, g *CSR) (*CSR, error) {
	n := g.n
	first := prims.MapReduce(s, n, 2*n, func(v int) int {
		if !slices.IsSorted(g.edges[g.offsets[v]:g.offsets[v+1]]) {
			return v
		}
		if _, ok := g.missingReverse(uint32(v)); ok {
			return n + v
		}
		return 2 * n
	}, func(a, b int) int { return min(a, b) })
	switch {
	case first < n:
		return nil, fmt.Errorf("graph: unsorted adjacency of vertex %d", first)
	case first < 2*n:
		v := uint32(first - n)
		u, _ := g.missingReverse(v)
		return nil, fmt.Errorf("graph: symmetric graph has edge (%d, %d) but not its reverse", v, u)
	}
	if !g.symmetric {
		linkTranspose(s, g)
	}
	return g, nil
}

// missingReverse returns the first neighbour u of v for which a symmetric g
// stores no edge (u, v) of the same weight, found by binary search in u's
// sorted list; ok is false when there is none or g is not symmetric.
func (g *CSR) missingReverse(v uint32) (u uint32, ok bool) {
	if !g.symmetric {
		return 0, false
	}
	for i, u := range g.OutNghSlice(v) {
		back := g.OutNghSlice(u)
		j, found := slices.BinarySearch(back, v)
		if found && g.weights != nil {
			w, backW := g.OutWeightSlice(v)[i], g.OutWeightSlice(u)
			found = false
			for ; j < len(back) && back[j] == v && !found; j++ {
				found = backW[j] == w
			}
		}
		if !found {
			return u, true
		}
	}
	return 0, false
}
