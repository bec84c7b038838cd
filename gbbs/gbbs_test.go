package gbbs_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/gbbs"
)

// The facade tests exercise the package's public surface — engine builds,
// every registered algorithm through Engine.Run, I/O and statistics — end
// to end on small graphs; deep correctness is covered by the internal
// packages' oracle tests.

// check fails the test if err is set or the result check ok is false.
func check(t *testing.T, name string, err error, ok bool) {
	t.Helper()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !ok {
		t.Fatalf("%s: unexpected result", name)
	}
}

// valueTypes is the dynamic type of each registered algorithm's
// Result.Value, as documented on Result.Value. An interface type means the
// Value must implement it.
var valueTypes = map[string]reflect.Type{
	"approxkcore":   reflect.TypeFor[[]uint32](),
	"bc":            reflect.TypeFor[[]float64](),
	"bellmanford":   reflect.TypeFor[[]int64](),
	"bfs":           reflect.TypeFor[[]uint32](),
	"bicc":          reflect.TypeFor[*gbbs.Bicc](),
	"cc":            reflect.TypeFor[[]uint32](),
	"coloring":      reflect.TypeFor[[]uint32](),
	"coloring-lf":   reflect.TypeFor[[]uint32](),
	"deltastepping": reflect.TypeFor[[]uint32](),
	"incrcc":        reflect.TypeFor[[]uint32](),
	"kcore":         reflect.TypeFor[[]uint32](),
	"kcore-faa":     reflect.TypeFor[[]uint32](),
	"ldd":           reflect.TypeFor[[]uint32](),
	"mis":           reflect.TypeFor[[]bool](),
	"misprefix":     reflect.TypeFor[[]bool](),
	"mm":            reflect.TypeFor[[]gbbs.WEdge](),
	"msf":           reflect.TypeFor[[]gbbs.WEdge](),
	"scc":           reflect.TypeFor[[]uint32](),
	"setcover":      reflect.TypeFor[[]uint32](),
	"spanforest":    reflect.TypeFor[[]uint32](),
	"stats":         reflect.TypeFor[fmt.Stringer](),
	"stats-dir":     reflect.TypeFor[fmt.Stringer](),
	"tc":            reflect.TypeFor[int64](),
	"wbfs":          reflect.TypeFor[[]uint32](),
	// Registered by TestRegisterCustomAlgorithm, which may run first.
	"test-degree-sum": reflect.TypeFor[int64](),
}

// TestFacadeEndToEnd runs every registered algorithm through Engine.Run on
// a symmetric weighted RMAT graph (a directed one for Directed algorithms)
// at 1, 2 and 4 threads, and on the graph's compressed form at 1 and 4.
// Every run must give byte-identical JSON for Value and the same Summary —
// the serving layer's result cache assumes both — and Value must have the
// type valueTypes records, so an algorithm missing from that table fails
// the test. Every algorithm then gets the directed graph, flat and
// compressed, under a deadline: it must answer, or, when it declares
// NeedsSymmetric, be refused before it starts. Spot checks on the outputs
// follow.
func TestFacadeEndToEnd(t *testing.T) {
	ctx := context.Background()
	eng := gbbs.New()
	g, err := eng.BuildCSR(ctx, gbbs.RMAT(10, 8, 5), gbbs.Symmetrize(), gbbs.PaperWeights(1))
	check(t, "RMAT", err, g != nil && g.N() == 1024 && g.M() > 0 && g.Weighted() && g.Symmetric())
	cg, err := eng.Build(ctx, gbbs.Prebuilt(g), gbbs.EncodeCompressed(0))
	check(t, "EncodeCompressed", err, cg != nil && cg.M() == g.M())
	dg, err := eng.BuildCSR(ctx, gbbs.RMAT(10, 8, 6), gbbs.PaperWeights(1))
	check(t, "directed RMAT", err, dg != nil && !dg.Symmetric())
	dcg, err := eng.Build(ctx, gbbs.Prebuilt(dg), gbbs.EncodeCompressed(0))
	check(t, "directed EncodeCompressed", err, dcg != nil && dcg.M() == dg.M())

	engines := map[int]*gbbs.Engine{}
	for _, p := range []int{1, 2, 4} {
		engines[p] = gbbs.New(gbbs.WithThreads(p))
		defer engines[p].Close()
	}
	const src = 3
	res := map[string]gbbs.Result{} // each algorithm's 1-thread CSR result
	for _, a := range gbbs.Algorithms() {
		want, ok := valueTypes[a.Name]
		if !ok {
			t.Errorf("%s: registered but missing from valueTypes", a.Name)
			continue
		}
		csr, comp := gbbs.Graph(g), cg
		if a.Directed {
			csr, comp = dg, dcg
		}
		var refJSON []byte
		for i, run := range []struct {
			threads int
			g       gbbs.Graph
		}{{1, csr}, {2, csr}, {4, csr}, {1, comp}, {4, comp}} {
			r, err := engines[run.threads].Run(ctx, a.Name, gbbs.Request{Graph: run.g, Source: src})
			if err != nil {
				t.Fatalf("%s on %T at %d threads: %v", a.Name, run.g, run.threads, err)
			}
			js, err := json.Marshal(r.Value)
			if err != nil {
				t.Fatalf("%s: marshal Value: %v", a.Name, err)
			}
			if i == 0 {
				res[a.Name], refJSON = r, js
				continue
			}
			if ref := res[a.Name]; !bytes.Equal(js, refJSON) || r.Summary != ref.Summary {
				t.Errorf("%s on %T at %d threads differs from the CSR at 1 thread (summary %q vs %q)",
					a.Name, run.g, run.threads, r.Summary, ref.Summary)
			}
		}
		got := reflect.TypeOf(res[a.Name].Value)
		if got == nil || (want.Kind() == reflect.Interface && !got.Implements(want)) ||
			(want.Kind() != reflect.Interface && got != want) {
			t.Fatalf("%s: Value has type %v, want %v", a.Name, got, want)
		}
	}

	for _, a := range gbbs.Algorithms() {
		for _, dir := range []gbbs.Graph{dg, dcg} {
			dctx, cancel := context.WithTimeout(ctx, 5*time.Second)
			_, err := engines[2].Run(dctx, a.Name, gbbs.Request{Graph: dir, Source: src})
			cancel()
			if a.NeedsSymmetric {
				if err == nil || errors.Is(err, context.DeadlineExceeded) || !strings.Contains(err.Error(), "sym transform") {
					t.Errorf("%s on a directed %T: error %v, want a refusal naming the sym transform", a.Name, dir, err)
				}
			} else if err != nil {
				t.Errorf("%s on a directed %T: %v", a.Name, dir, err)
			}
		}
	}

	n := g.N()
	u32 := func(name string) []uint32 { return res[name].Value.([]uint32) }
	// scan parses the figures out of an algorithm's Summary.
	scan := func(name, format string, args ...any) {
		t.Helper()
		if _, err := fmt.Sscanf(res[name].Summary, format, args...); err != nil {
			t.Fatalf("%s summary %q: %v", name, res[name].Summary, err)
		}
	}
	for _, name := range []string{"bfs", "wbfs", "deltastepping"} {
		d := u32(name)
		check(t, name, nil, len(d) == n && d[src] == 0)
	}
	var reached int
	var neg bool
	scan("bellmanford", "reached %d vertices, negative cycle: %t", &reached, &neg)
	bf := res["bellmanford"].Value.([]int64)
	check(t, "bellmanford", nil, !neg && len(bf) == n && bf[src] == 0)
	dep := res["bc"].Value.([]float64)
	check(t, "bc", nil, len(dep) == n && dep[src] == 0)
	check(t, "ldd", nil, len(u32("ldd")) == n)
	num, largest := gbbs.ComponentCount(u32("cc"))
	check(t, "cc", nil, num > 0 && largest > 0)
	var trees, forestEdges int
	scan("spanforest", "%d trees, %d forest edges", &trees, &forestEdges)
	check(t, "spanforest", nil, len(u32("spanforest")) == n && trees == num && trees+forestEdges == n)
	b := res["bicc"].Value.(*gbbs.Bicc)
	check(t, "bicc", nil, b != nil && len(b.Labels) == n)
	check(t, "scc", nil, len(u32("scc")) == dg.N())
	var msfEdges int
	var weight int64
	scan("msf", "%d edges, weight %d", &msfEdges, &weight)
	check(t, "msf", nil, len(res["msf"].Value.([]gbbs.WEdge)) == msfEdges && msfEdges > 0 && weight > 0)
	check(t, "mis", nil, len(res["mis"].Value.([]bool)) == n)
	check(t, "misprefix", nil, len(res["misprefix"].Value.([]bool)) == n)
	check(t, "mm", nil, len(res["mm"].Value.([]gbbs.WEdge)) > 0)
	check(t, "coloring", nil, gbbs.NumColors(u32("coloring")) >= 2)
	check(t, "coloring-lf", nil, gbbs.NumColors(u32("coloring-lf")) >= 2)
	var kmax, rho int
	scan("kcore", "kmax=%d rho=%d", &kmax, &rho)
	check(t, "kcore", nil, gbbs.Degeneracy(u32("kcore")) == kmax && kmax > 0 && rho > 0)
	check(t, "approxkcore", nil, len(u32("approxkcore")) == n)
	check(t, "setcover", nil, len(u32("setcover")) > 0)
	check(t, "tc", nil, res["tc"].Value.(int64) >= 0)
}

func TestFacadeIO(t *testing.T) {
	ctx := context.Background()
	eng := gbbs.New()
	g, err := eng.BuildCSR(ctx, gbbs.Random(100, 400, 3), gbbs.Symmetrize(), gbbs.PaperWeights(3))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := gbbs.WriteAdjacency(&buf, g); err != nil {
		t.Fatal(err)
	}
	h, err := eng.Build(ctx, gbbs.Adjacency(&buf, true))
	if err != nil {
		t.Fatal(err)
	}
	if h.N() != g.N() || h.M() != g.M() {
		t.Fatal("I/O round trip mismatch")
	}
}

func TestFacadeStats(t *testing.T) {
	ctx := context.Background()
	eng := gbbs.New()
	g, err := eng.Build(ctx, gbbs.Torus(5), gbbs.Symmetrize())
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(ctx, "stats", gbbs.Request{Graph: g})
	if err != nil {
		t.Fatal(err)
	}
	var n, m, cc, tri, kmax int
	if _, err := fmt.Sscanf(res.Summary, "n=%d m=%d cc=%d tri=%d kmax=%d", &n, &m, &cc, &tri, &kmax); err != nil || kmax != 6 || cc != 1 {
		t.Fatalf("stats: %q (%v)", res.Summary, err)
	}
	if !strings.Contains(res.Value.(fmt.Stringer).String(), "kmax") {
		t.Fatal("stats table missing rows")
	}
	dg, err := eng.Build(ctx, gbbs.RMAT(8, 8, 4))
	if err != nil {
		t.Fatal(err)
	}
	res, err = eng.Run(ctx, "stats-dir", gbbs.Request{Graph: dg})
	if err != nil {
		t.Fatal(err)
	}
	var scc int
	if _, err := fmt.Sscanf(res.Summary, "n=%d m=%d scc=%d", &n, &m, &scc); err != nil || scc == 0 {
		t.Fatalf("directed stats missing SCCs: %q (%v)", res.Summary, err)
	}
}

func TestFacadeEdgeListPath(t *testing.T) {
	ctx := context.Background()
	eng := gbbs.New()
	el := &gbbs.EdgeList{N: 4, U: []uint32{0, 1, 2}, V: []uint32{1, 2, 3}}
	g, err := eng.Build(ctx, gbbs.Edges(el), gbbs.Symmetrize())
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 6 {
		t.Fatalf("M = %d", g.M())
	}
	res, err := eng.Run(ctx, "bfs", gbbs.Request{Graph: g})
	if err != nil {
		t.Fatal(err)
	}
	if d := res.Value.([]uint32); d[3] != 3 {
		t.Fatalf("path distance = %d", d[3])
	}
}
