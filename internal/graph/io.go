package graph

import (
	"bufio"
	"fmt"
	"io"
	"strconv"

	"repro/internal/parallel"
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
// not record this); for directed graphs the transpose is rebuilt on
// scheduler s.
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
	if n < 0 || m < 0 {
		return nil, fmt.Errorf("graph: negative sizes n=%d m=%d", n, m)
	}
	offsets := make([]int64, n+1)
	for v := 0; v < n; v++ {
		o, err := nextInt()
		if err != nil {
			return nil, err
		}
		if o < 0 || o > int64(m) {
			return nil, fmt.Errorf("graph: offset %d out of range", o)
		}
		offsets[v] = o
	}
	offsets[n] = int64(m)
	for v := 1; v <= n; v++ {
		if offsets[v] < offsets[v-1] {
			return nil, fmt.Errorf("graph: offsets not monotone at %d", v)
		}
	}
	edges := make([]uint32, m)
	for i := 0; i < m; i++ {
		e, err := nextInt()
		if err != nil {
			return nil, err
		}
		if e < 0 || e >= int64(n) {
			return nil, fmt.Errorf("graph: edge target %d out of range", e)
		}
		edges[i] = uint32(e)
	}
	var weights []int32
	if weighted {
		weights = make([]int32, m)
		for i := 0; i < m; i++ {
			w, err := nextInt()
			if err != nil {
				return nil, err
			}
			weights[i] = int32(w)
		}
	}
	g := &CSR{n: n, offsets: offsets, edges: edges, weights: weights, symmetric: symmetric}
	if !symmetric {
		return rebuildWithTranspose(s, g), nil
	}
	return g, nil
}

// rebuildWithTranspose rebuilds a transpose-less directed CSR through the
// edge-list path so in-edges become available, keeping the stored adjacency
// as-is (it may intentionally contain duplicates or self-loops).
func rebuildWithTranspose(s *parallel.Scheduler, g *CSR) *CSR {
	n, m := g.n, len(g.edges)
	el := &EdgeList{N: n}
	el.U = make([]uint32, m)
	el.V = make([]uint32, m)
	if g.weights != nil {
		el.W = make([]int32, m)
	}
	s.ForRange(n, 0, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			for i := g.offsets[v]; i < g.offsets[v+1]; i++ {
				el.U[i] = uint32(v)
				el.V[i] = g.edges[i]
				if g.weights != nil {
					el.W[i] = g.weights[i]
				}
			}
		}
	})
	return FromEdgeList(s, n, el, BuildOptions{KeepDuplicates: true, KeepSelfLoops: true})
}
