package serve

import (
	"context"
	"testing"

	"repro/gbbs"
)

func TestEnginePoolReusesEngines(t *testing.T) {
	p := NewEnginePool(16)
	e1 := p.Get(4)
	if e1.Threads() != 4 {
		t.Fatalf("Get(4) engine has %d threads", e1.Threads())
	}
	p.Put(e1)
	e2 := p.Get(4)
	if e2 != e1 {
		t.Fatal("Get after Put did not return the warm engine")
	}
	if e3 := p.Get(4); e3 == e1 {
		t.Fatal("one warm engine handed out twice")
	}
	st := p.Stats()
	if st.Hits != 1 || st.Misses != 2 {
		t.Fatalf("hits/misses = %d/%d, want 1/2", st.Hits, st.Misses)
	}
}

func TestEnginePoolKeysByThreadCount(t *testing.T) {
	p := NewEnginePool(16)
	e4 := p.Get(4)
	p.Put(e4)
	e2 := p.Get(2)
	if e2 == e4 {
		t.Fatal("Get(2) returned the warm 4-thread engine")
	}
	if e2.Threads() != 2 {
		t.Fatalf("Get(2) engine has %d threads", e2.Threads())
	}
}

func TestEnginePoolBudgetCapsRetention(t *testing.T) {
	p := NewEnginePool(6)
	a, b := p.Get(4), p.Get(4)
	p.Put(a) // fits: warm=4
	p.Put(b) // 4+4 > 6: a is evicted, b retained (most recent traffic wins)
	st := p.Stats()
	if st.WarmEngines != 1 || st.WarmThreads != 4 {
		t.Fatalf("warm engines/threads = %d/%d, want 1/4", st.WarmEngines, st.WarmThreads)
	}
	if got := p.Get(4); got != b {
		t.Fatal("pool retained the evicted engine instead of the returned one")
	}
	p.Put(b)
	// The evicted engine was closed but must stay usable (sequentially):
	// a racing request holding it cannot be corrupted.
	g := buildTestGraph(t)
	res, err := a.Run(context.Background(), "bfs", gbbs.Request{Graph: g})
	if dist, _ := res.Value.([]uint32); err != nil || len(dist) != g.N() {
		t.Fatalf("evicted engine bfs: err=%v len=%d", err, len(dist))
	}
}

// TestEnginePoolEvictsStaleThreadCounts is the workload-shift regression:
// a resident engine of an old thread count must not pin the budget and
// permanently disable reuse for the thread count traffic moved to.
func TestEnginePoolEvictsStaleThreadCounts(t *testing.T) {
	p := NewEnginePool(8)
	old := p.Get(8)
	p.Put(old) // warm=8, the whole budget
	e := p.Get(4)
	p.Put(e) // must evict the stale 8-thread engine, not discard e
	st := p.Stats()
	if st.WarmThreads != 4 || st.WarmEngines != 1 {
		t.Fatalf("after shift: warm=%d engines=%d, want 4/1 (stats %+v)", st.WarmThreads, st.WarmEngines, st)
	}
	if got := p.Get(4); got != e {
		t.Fatal("4-thread engine was not reused after the workload shift")
	}
}

func TestEnginePoolCloseClosesIdleAndFuturePuts(t *testing.T) {
	p := NewEnginePool(16)
	a := p.Get(2)
	p.Put(a)
	p.Close()
	if st := p.Stats(); st.WarmEngines != 0 || st.WarmThreads != 0 {
		t.Fatalf("pool not empty after Close: %+v", st)
	}
	b := p.Get(2) // still works after Close
	p.Put(b)      // closed instead of retained
	if st := p.Stats(); st.WarmEngines != 0 {
		t.Fatalf("Put after Close retained an engine: %+v", st)
	}
}

// buildTestGraph makes a small deterministic graph for engine-pool tests.
func buildTestGraph(t *testing.T) gbbs.Graph {
	t.Helper()
	eng := gbbs.New(gbbs.WithThreads(1))
	g, err := eng.Build(context.Background(), gbbs.RMAT(8, 8, 1), gbbs.Symmetrize())
	if err != nil {
		t.Fatalf("building test graph: %v", err)
	}
	return g
}
