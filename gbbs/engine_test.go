package gbbs

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/parallel"
)

// sched builds the fixture graphs of this package's tests; the code under
// test always runs on an Engine's own scheduler.
var sched = parallel.New(runtime.NumCPU())

// testGraph builds a moderate RMAT graph shared by the engine tests.
var testGraphOnce = sync.OnceValue(func() *CSR {
	return gen.BuildRMAT(sched, 12, 16, true, false, 7)
})

// TestEngineIsolationConcurrent runs algorithms concurrently on engines with
// different thread counts and checks every run agrees with the sequential
// (1-thread) baseline. Under -race this also proves two engines share no
// parallelism state.
func TestEngineIsolationConcurrent(t *testing.T) {
	g := testGraphOnce()
	ctx := context.Background()

	// runAll runs cc, mis and bfs on e, returning their Values in order.
	runAll := func(e *Engine) ([]any, error) {
		var out []any
		for _, name := range []string{"cc", "mis", "bfs"} {
			res, err := e.Run(ctx, name, Request{Graph: g})
			if err != nil {
				return nil, err
			}
			out = append(out, res.Value)
		}
		return out, nil
	}
	want, err := runAll(New(WithThreads(1), WithSeed(3)))
	if err != nil {
		t.Fatal(err)
	}

	engines := []*Engine{
		New(WithThreads(1), WithSeed(3)),
		New(WithThreads(2), WithSeed(3)),
		New(WithThreads(4), WithSeed(3)),
		New(WithThreads(8), WithSeed(3), WithGrain(256)),
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(engines))
	for _, e := range engines {
		wg.Add(1)
		go func(e *Engine) {
			defer wg.Done()
			got, err := runAll(e)
			if err != nil {
				errs <- err
				return
			}
			if !reflect.DeepEqual(got, want) {
				errs <- fmt.Errorf("engine with %d threads disagrees with sequential run", e.Threads())
			}
		}(e)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestEngineThreadCountsStayIsolated checks one engine's worker count never
// leaks into another engine.
func TestEngineThreadCountsStayIsolated(t *testing.T) {
	a := New(WithThreads(2))
	b := New(WithThreads(7))
	if a.Threads() != 2 || b.Threads() != 7 {
		t.Fatalf("engine thread counts: got %d and %d, want 2 and 7", a.Threads(), b.Threads())
	}
}

// TestEngineCancellation checks a long run on a large RMAT graph returns
// promptly with context.Canceled once its context is cancelled mid-flight.
func TestEngineCancellation(t *testing.T) {
	g := gen.BuildRMAT(sched, 16, 16, true, false, 11)
	e := New(WithThreads(2), WithSeed(1))

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := e.Run(ctx, "bc", Request{Graph: g})
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed > 10*time.Second {
		t.Fatalf("cancellation took %v, want prompt return", elapsed)
	}
}

// TestEngineCancelledBeforeStart checks an already-cancelled context returns
// without running anything.
func TestEngineCancelledBeforeStart(t *testing.T) {
	g := testGraphOnce()
	e := New(WithThreads(2))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := e.Run(ctx, "cc", Request{Graph: g})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run err = %v (res %+v), want context.Canceled", err, res)
	}
}

// TestEngineDeadline checks deadline expiry surfaces as DeadlineExceeded.
func TestEngineDeadline(t *testing.T) {
	g := gen.BuildRMAT(sched, 15, 16, false, false, 13)
	e := New(WithThreads(2))
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if _, err := e.Run(ctx, "scc", Request{Graph: g}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestEngineRunDispatch exercises registry dispatch end to end: Value and
// Summary shapes, and the request checks Run applies before dispatch.
// TestRunMatchesAcrossThreadsAndForms checks the values themselves.
func TestEngineRunDispatch(t *testing.T) {
	g := testGraphOnce()
	e := New(WithThreads(2), WithSeed(3))
	ctx := context.Background()

	res, err := e.Run(ctx, "cc", Request{Graph: g})
	if err != nil {
		t.Fatal(err)
	}
	if res.Elapsed <= 0 {
		t.Fatalf("Elapsed = %v, want > 0", res.Elapsed)
	}
	if labels, ok := res.Value.([]uint32); !ok || len(labels) != g.N() {
		t.Fatalf("cc Value has type %T (len %d), want []uint32 of length %d", res.Value, len(labels), g.N())
	}
	if !strings.Contains(res.Summary, "components") {
		t.Fatalf("cc summary %q", res.Summary)
	}

	if _, err := e.Run(ctx, "no-such-algo", Request{Graph: g}); err == nil ||
		!strings.Contains(err.Error(), "unknown algorithm") {
		t.Fatalf("unknown algorithm err = %v", err)
	}
	if _, err := e.Run(ctx, "msf", Request{Graph: g}); err == nil ||
		!strings.Contains(err.Error(), "weighted") {
		t.Fatalf("msf on unweighted graph err = %v", err)
	}
	if _, err := e.Run(ctx, "bfs", Request{Graph: g, Source: uint32(g.N())}); err == nil ||
		!strings.Contains(err.Error(), "out of range") {
		t.Fatalf("out-of-range source err = %v", err)
	}
	if _, err := e.Run(ctx, "bfs", Request{}); err == nil {
		t.Fatal("nil graph accepted")
	}
}

// TestRegistry checks registration invariants and the paper-suite metadata:
// row order and the Tables 2/4/5 row labels.
func TestRegistry(t *testing.T) {
	algos := Algorithms()
	if len(algos) < 15 {
		t.Fatalf("only %d registered algorithms", len(algos))
	}
	seen := map[string]bool{}
	for _, a := range algos {
		if a.Name == "" || a.Description == "" {
			t.Fatalf("algorithm %+v missing name or description", a)
		}
		if seen[a.Name] {
			t.Fatalf("duplicate %q", a.Name)
		}
		seen[a.Name] = true
	}
	for _, name := range []string{"bfs", "wbfs", "bellmanford", "bc", "ldd", "cc",
		"bicc", "scc", "msf", "mis", "mm", "coloring", "kcore", "setcover", "tc"} {
		if _, ok := Lookup(name); !ok {
			t.Fatalf("registry missing %q", name)
		}
	}

	suite := PaperSuite()
	t.Run("SuiteCoversFifteenProblems", func(t *testing.T) {
		if len(suite) != 15 {
			t.Fatalf("paper suite has %d problems, want 15 (Table 1)", len(suite))
		}
		rows := map[string]bool{}
		for i, a := range suite {
			if a.PaperOrder != i+1 {
				t.Fatalf("suite[%d] = %q with order %d", i, a.Name, a.PaperOrder)
			}
			if a.PaperRow == "" {
				t.Fatalf("suite[%d] = %q has no paper row label", i, a.Name)
			}
			rows[a.PaperRow] = true
		}
		if suite[0].Name != "bfs" || suite[14].Name != "tc" {
			t.Fatalf("suite order: first %q last %q", suite[0].Name, suite[14].Name)
		}
		for _, want := range []string{
			"Breadth-First Search (BFS)", "Connectivity", "Biconnectivity",
			"Strongly Connected Components (SCC)", "Minimum Spanning Forest (MSF)",
			"k-core", "Triangle Counting (TC)",
		} {
			if !rows[want] {
				t.Fatalf("paper suite missing row %q", want)
			}
		}
	})

	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Register did not panic")
		}
	}()
	bfs, _ := Lookup("bfs")
	Register(Algorithm{Name: "bfs", Run: bfs.Run})
}

// TestRegisterCustomAlgorithm registers a user-defined algorithm and runs it
// through the same dispatch path as the builtins.
func TestRegisterCustomAlgorithm(t *testing.T) {
	Register(Algorithm{
		Name:        "test-degree-sum",
		Description: "sum of out-degrees (test-only)",
		Run: func(ctx context.Context, e *Engine, req Request) (Result, error) {
			var sum int64
			for v := 0; v < req.Graph.N(); v++ {
				sum += int64(req.Graph.OutDeg(uint32(v)))
			}
			return Result{Summary: "degree sum", Value: sum}, nil
		},
	})
	g := testGraphOnce()
	res, err := New().Run(context.Background(), "test-degree-sum", Request{Graph: g})
	if err != nil {
		t.Fatal(err)
	}
	if res.Value.(int64) != int64(g.M()) {
		t.Fatalf("degree sum %d != m %d", res.Value, g.M())
	}
}
