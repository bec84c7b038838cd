package compress

import (
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/parallel"
)

// sched is the scheduler every test in this package runs on, at the
// hardware width so the parallel code paths stay covered. Tests that need
// another width build their own with parallel.New.
var sched = parallel.New(runtime.NumCPU())

func TestVarintRoundTrip(t *testing.T) {
	err := quick.Check(func(x uint64) bool {
		buf := putUvarint(nil, x)
		if len(buf) != uvarintLen(x) {
			return false
		}
		y, i := uvarint(buf, 0)
		return y == x && i == len(buf)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestZigzagRoundTrip(t *testing.T) {
	err := quick.Check(func(x int64) bool {
		return unzigzag(zigzag(x)) == x
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []int64{0, -1, 1, -2, 2} {
		if zigzag(v) != uint64(2*abs64(v))-b2u(v < 0) {
			t.Fatalf("zigzag(%d) = %d", v, zigzag(v))
		}
	}
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// equalGraphs checks the compressed graph exposes exactly the CSR's
// adjacency through every access path.
func equalGraphs(t *testing.T, name string, csr *graph.CSR, cg *Graph) {
	t.Helper()
	if cg.N() != csr.N() || cg.M() != csr.M() || cg.Weighted() != csr.Weighted() || cg.Symmetric() != csr.Symmetric() {
		t.Fatalf("%s: header mismatch", name)
	}
	ct, gt := csr.Transposed(), cg.Transpose()
	for v := uint32(0); int(v) < csr.N(); v++ {
		if cg.OutDeg(v) != csr.OutDeg(v) || gt.OutDeg(v) != ct.OutDeg(v) {
			t.Fatalf("%s: degree mismatch at %d", name, v)
		}
		var gotN []uint32
		var gotW []int32
		cg.OutNgh(v, func(u uint32, w int32) bool {
			gotN = append(gotN, u)
			gotW = append(gotW, w)
			return true
		})
		if !slices.Equal(gotN, csr.OutNghSlice(v)) {
			t.Fatalf("%s: out(%d) = %v want %v", name, v, gotN, csr.OutNghSlice(v))
		}
		if csr.Weighted() && !slices.Equal(gotW, csr.OutWeightSlice(v)) {
			t.Fatalf("%s: weights(%d) mismatch", name, v)
		}
		if got := cg.DecodeOut(v, nil); !slices.Equal(got, csr.OutNghSlice(v)) {
			t.Fatalf("%s: DecodeOut(%d) mismatch", name, v)
		}
		var gotIn []uint32
		var gotInW []int32
		gt.OutNgh(v, func(u uint32, w int32) bool {
			gotIn = append(gotIn, u)
			gotInW = append(gotInW, w)
			return true
		})
		if !slices.Equal(gotIn, ct.OutNghSlice(v)) {
			t.Fatalf("%s: in(%d) mismatch", name, v)
		}
		if csr.Weighted() && !slices.Equal(gotInW, ct.OutWeightSlice(v)) {
			t.Fatalf("%s: in-weights(%d) mismatch", name, v)
		}
	}
}

func TestFromCSRRoundTrip(t *testing.T) {
	cases := map[string]*graph.CSR{
		"rmat-sym":  gen.BuildRMAT(sched, 10, 8, true, false, 3),
		"rmat-dir":  gen.BuildRMAT(sched, 9, 8, false, false, 3),
		"torus":     gen.BuildTorus3D(sched, 6, false, 3),
		"weighted":  gen.BuildRMAT(sched, 9, 6, true, true, 4),
		"wdirected": gen.BuildErdosRenyi(sched, 500, 3000, false, true, 4),
		"empty":     graph.FromEdgeList(sched, 10, &graph.EdgeList{N: 10}, graph.BuildOptions{Symmetrize: true}),
		"star":      graph.FromEdgeList(sched, 500, gen.Star(500), graph.BuildOptions{Symmetrize: true}),
	}
	for name, csr := range cases {
		for _, bs := range []int{1, 3, 64, 1024} {
			equalGraphs(t, name, csr, FromCSR(sched, csr, bs))
		}
	}
}

func TestOutRangeMatchesSlice(t *testing.T) {
	csr := gen.BuildRMAT(sched, 9, 10, true, false, 7)
	cg := FromCSR(sched, csr, 16)
	for v := uint32(0); int(v) < csr.N(); v++ {
		d := csr.OutDeg(v)
		for _, r := range [][2]int{{0, d}, {1, d - 1}, {d / 3, 2 * d / 3}, {0, 1}, {d, d}} {
			lo, hi := r[0], r[1]
			if lo < 0 || hi < lo {
				continue
			}
			var got []uint32
			cg.OutRange(v, lo, hi, func(u uint32, _ int32) bool {
				got = append(got, u)
				return true
			})
			want := csr.OutNghSlice(v)
			if hi > d {
				hi = d
			}
			if lo > d {
				lo = d
			}
			if !slices.Equal(got, want[lo:hi]) {
				t.Fatalf("OutRange(%d, %d, %d) = %v want %v", v, lo, hi, got, want[lo:hi])
			}
		}
	}
}

func TestOutRangeEarlyExit(t *testing.T) {
	csr := graph.FromEdgeList(sched, 200, gen.Star(200), graph.BuildOptions{Symmetrize: true})
	cg := FromCSR(sched, csr, 8)
	count := 0
	cg.OutRange(0, 0, 150, func(u uint32, _ int32) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Fatalf("early exit after %d", count)
	}
}

func TestTransposeDirected(t *testing.T) {
	csr := gen.BuildRMAT(sched, 8, 6, false, false, 9)
	cg := FromCSR(sched, csr, 0)
	tr := cg.Transpose()
	for v := uint32(0); int(v) < csr.N(); v++ {
		var got []uint32
		tr.OutNgh(v, func(u uint32, _ int32) bool { got = append(got, u); return true })
		if !slices.Equal(got, csr.Transposed().OutNghSlice(v)) {
			t.Fatalf("transpose out(%d) mismatch", v)
		}
	}
	// Symmetric transpose is identity.
	sg := FromCSR(sched, gen.BuildTorus3D(sched, 4, false, 1), 0)
	if sg.Transpose() != graph.Graph(sg) {
		t.Fatal("symmetric transpose should be the same graph")
	}
}

func TestCompressionRatio(t *testing.T) {
	// Sorted difference coding of a local-order graph must beat the 4
	// bytes/edge of uncompressed uint32 adjacency.
	csr := gen.BuildTorus3D(sched, 20, false, 1)
	cg := FromCSR(sched, csr, 0)
	if bpe := cg.BytesPerEdge(); bpe >= 4 {
		t.Fatalf("torus bytes/edge = %.2f, want < 4", bpe)
	}
	if cg.SizeBytes() == 0 {
		t.Fatal("no data stored")
	}
}

// Property: FilterEdges over any source representation (CSR, compressed,
// overlay) and at any worker count lists exactly the kept out-edges a
// sequential OutNgh loop finds, column by column and in the same order,
// weights included; a nil keep lists every stored edge.
func TestFilterEdgesMatchesSequentialFilter(t *testing.T) {
	const n = 48
	scheds := []*parallel.Scheduler{parallel.New(1), parallel.New(2), parallel.New(4)}
	defer func() {
		for _, s := range scheds {
			s.Close()
		}
	}()
	err := quick.Check(func(raw []uint16, cut uint8, salt uint32) bool {
		el := graph.NewEdgeList(n, len(raw)/3, true)
		for i := 0; i+2 < len(raw); i += 3 {
			el.Add(uint32(raw[i])%n, uint32(raw[i+1])%n, int32(raw[i+2]%50)+1)
		}
		// The overlay's base holds the first edges, its delta the rest.
		split := el.Len() * int(cut) / 256
		head := &graph.EdgeList{N: n, U: el.U[:split], V: el.V[:split], W: el.W[:split]}
		tail := &graph.EdgeList{N: n, U: el.U[split:], V: el.V[split:], W: el.W[split:]}
		csr := graph.FromEdgeList(sched, n, el, graph.BuildOptions{Symmetrize: true})
		ov, _ := graph.ApplyEdges(sched, graph.FromEdgeList(sched, n, head, graph.BuildOptions{Symmetrize: true}), tail)
		filtered := func(v, u uint32) bool { return (v*7+u*13+salt)%3 != 0 }
		for _, src := range []graph.Graph{csr, FromCSR(sched, csr, 4), ov} {
			for _, keep := range []func(v, u uint32) bool{filtered, nil} {
				want := graph.NewEdgeList(n, 0, true)
				for v := uint32(0); v < n; v++ {
					src.OutNgh(v, func(u uint32, w int32) bool {
						if keep == nil || keep(v, u) {
							want.Add(v, u, w)
						}
						return true
					})
				}
				if keep == nil && want.Len() != src.M() {
					return false
				}
				for _, s := range scheds {
					got := graph.FilterEdges(s, src, true, keep)
					if got.N != n || !slices.Equal(got.U, want.U) || !slices.Equal(got.V, want.V) ||
						!slices.Equal(got.W, want.W) {
						return false
					}
					bare := graph.FilterEdges(s, src, false, keep)
					if bare.W != nil || !slices.Equal(bare.U, want.U) || !slices.Equal(bare.V, want.V) {
						return false
					}
				}
			}
		}
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestCompressedEarlyExitOutNgh(t *testing.T) {
	csr := gen.BuildTorus3D(sched, 4, false, 1)
	cg := FromCSR(sched, csr, 2)
	count := 0
	cg.OutNgh(0, func(u uint32, _ int32) bool {
		count++
		return false
	})
	if count != 1 {
		t.Fatalf("early exit visited %d", count)
	}
}
