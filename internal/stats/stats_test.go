package stats

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/parallel"
)

// sched is the scheduler every test in this package runs on, at the
// hardware width so the parallel code paths stay covered. Tests that need
// another width build their own with parallel.New.
var sched = parallel.New(runtime.NumCPU())

func TestComputeSymTorus(t *testing.T) {
	g := gen.BuildTorus3D(sched, 5, false, 1)
	s := ComputeSym(sched, "torus", g, Options{Seed: 1})
	if s.N != 125 || s.M != 750 {
		t.Fatalf("sizes N=%d M=%d", s.N, s.M)
	}
	if s.NumCC != 1 || s.LargestCC != 125 {
		t.Fatalf("CC: %d largest %d", s.NumCC, s.LargestCC)
	}
	if s.Triangles != 0 {
		t.Fatalf("torus triangles = %d", s.Triangles)
	}
	if s.KMax != 6 || s.Rho != 1 {
		t.Fatalf("kmax=%d rho=%d want 6,1", s.KMax, s.Rho)
	}
	// 5x5x5 torus: max BFS eccentricity is 2+2+2 = 6 (wraparound).
	if s.EffectiveDiameter != 6 {
		t.Fatalf("effective diameter = %d want 6", s.EffectiveDiameter)
	}
	if s.MISSize == 0 || s.MatchingSize == 0 || s.ColorsLLF < 2 {
		t.Fatalf("degenerate stats: %+v", s)
	}
}

func TestComputeDirCycle(t *testing.T) {
	g := graph.FromEdgeList(sched, 50, gen.Cycle(50), graph.BuildOptions{})
	s := ComputeDir(sched, "cycle", g, Options{Seed: 2})
	if s.NumSCC != 1 || s.LargestSCC != 50 {
		t.Fatalf("SCC: %d largest %d", s.NumSCC, s.LargestSCC)
	}
	if s.EffectiveDiameter != 49 {
		t.Fatalf("directed diameter = %d want 49", s.EffectiveDiameter)
	}
}

func TestWriteTableContainsRows(t *testing.T) {
	g := gen.BuildTorus3D(sched, 4, false, 1)
	s := ComputeSym(sched, "t", g, Options{Seed: 3})
	var buf bytes.Buffer
	WriteTable(&buf, s, false)
	out := buf.String()
	for _, want := range []string{"Num. Vertices", "Triangles", "kmax", "rho", "Set Cover"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
	var dbuf bytes.Buffer
	sd := ComputeDir(sched, "d", graph.FromEdgeList(sched, 10, gen.Cycle(10), graph.BuildOptions{}), Options{Seed: 3})
	WriteTable(&dbuf, sd, true)
	if !strings.Contains(dbuf.String(), "Strongly Connected") {
		t.Fatal("directed table missing SCC row")
	}
}

func TestSkipTriangles(t *testing.T) {
	g := gen.BuildRMAT(sched, 8, 6, true, false, 4)
	s := ComputeSym(sched, "r", g, Options{Seed: 1, SkipTriangles: true})
	if s.Triangles != 0 {
		t.Fatal("triangles computed despite skip")
	}
}
