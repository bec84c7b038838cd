package graph

import (
	"bytes"
	"slices"
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
	for v := uint32(0); int(v) < g.N(); v++ {
		if !slices.Equal(h.OutNghSlice(v), g.OutNghSlice(v)) {
			t.Fatalf("adjacency mismatch at %d", v)
		}
		if !slices.Equal(h.InNghSlice(v), g.InNghSlice(v)) {
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
	}
	for i, c := range cases {
		if _, err := ReadAdjacency(sched, strings.NewReader(c), false); err == nil {
			t.Fatalf("case %d: expected error", i)
		}
	}
}
