package graph

import (
	"bytes"
	"slices"
	"testing"
)

func TestBinaryRoundTripSymmetricWeighted(t *testing.T) {
	el := &EdgeList{N: 5, U: []uint32{0, 1, 2, 3}, V: []uint32{1, 2, 3, 4}, W: []int32{3, 1, 4, 1}}
	g := FromEdgeList(sched, 5, el, BuildOptions{Symmetrize: true})
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
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
	el := &EdgeList{N: 4, U: []uint32{0, 0, 1, 2}, V: []uint32{1, 2, 2, 0}}
	g := FromEdgeList(sched, 4, el, BuildOptions{})
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	h, err := ReadBinary(sched, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if h.Symmetric() {
		t.Fatal("directedness lost")
	}
	for v := uint32(0); int(v) < g.N(); v++ {
		if !slices.Equal(h.OutNghSlice(v), g.OutNghSlice(v)) {
			t.Fatalf("out mismatch at %d", v)
		}
		if !slices.Equal(h.InNghSlice(v), g.InNghSlice(v)) {
			t.Fatalf("in mismatch at %d (transpose rebuild)", v)
		}
	}
}

func TestBinaryRejectsCorruption(t *testing.T) {
	g := FromEdgeList(sched, 3, &EdgeList{N: 3, U: []uint32{0, 1}, V: []uint32{1, 2}}, BuildOptions{Symmetrize: true})
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
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
	g := FromEdgeList(sched, 7, &EdgeList{N: 7}, BuildOptions{Symmetrize: true})
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
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
