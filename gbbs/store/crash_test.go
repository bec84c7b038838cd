package store_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/gbbs"
	"repro/gbbs/store"
	"repro/internal/vfs"
)

// The crash-recovery property test: run a fixed workload (create a graph,
// apply crashBatches edge batches) against a fault-injecting in-memory
// filesystem, "crash" at every filesystem operation in turn, recover, and
// assert the recovered graph is byte-identical to a from-scratch build of
// some batch prefix — with every acknowledged (fsync'd) batch inside that
// prefix. Batch application is byte-deterministic at any thread count, so
// the reference prefixes are computed on a differently-threaded engine.

const (
	crashSide     = 8  // grid side: 64 vertices
	crashBatches  = 22 // ≥ 20 applied batches per the acceptance criteria
	crashMaxVer   = 1 + crashBatches
	crashEdgesPer = 3
)

// crashConfig returns the store configuration the crash workload runs
// under: an aggressive compaction threshold so the sweep crosses the
// snapshot-write/WAL-truncate path many times, not just WAL appends.
func crashConfig(fs vfs.FS) store.Config {
	return store.Config{DataDir: "data", FS: fs, CompactFraction: 0.05}
}

// crashWorkload builds the deterministic batch sequence: crashEdgesPer new
// non-grid-adjacent edges per batch, no duplicates across batches.
func crashWorkload() []*gbbs.UpdateBatch {
	const n = crashSide * crashSide
	adjacent := func(u, v uint32) bool {
		if u == v {
			return true
		}
		d := int64(u) - int64(v)
		if d < 0 {
			d = -d
		}
		return d == crashSide || (d == 1 && u/crashSide == v/crashSide)
	}
	var batches []*gbbs.UpdateBatch
	b := &gbbs.UpdateBatch{N: n}
	// i -> 173·i mod n² is a bijection (173 is odd, n² a power of two), so
	// the scan covers every vertex pair exactly once, in a scattered order.
	for i := 0; i < n*n && len(batches) < crashBatches; i++ {
		c := uint32(i*173) % (n * n)
		u, v := c/n, c%n
		if u >= v || adjacent(u, v) {
			continue
		}
		b.Add(u, v, 0)
		if b.Len() == crashEdgesPer {
			batches = append(batches, b)
			b = &gbbs.UpdateBatch{N: n}
		}
	}
	if len(batches) != crashBatches {
		panic("crashWorkload: not enough eligible edges")
	}
	return batches
}

// compactBytes flattens a snapshot graph and serializes it — the canonical
// byte identity of a graph version.
func compactBytes(t testing.TB, eng *gbbs.Engine, g gbbs.Graph) []byte {
	t.Helper()
	csr, err := eng.Compact(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := gbbs.WriteBinary(&buf, csr); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// referencePrefixes computes the canonical bytes of every version 1..maxVer
// from scratch on eng: version 1 is the base graph, version v applies the
// first v-1 batches.
func referencePrefixes(t testing.TB, eng *gbbs.Engine, base *gbbs.CSR, batches []*gbbs.UpdateBatch) map[uint64][]byte {
	t.Helper()
	ctx := context.Background()
	refs := make(map[uint64][]byte, len(batches)+1)
	var g gbbs.Graph = base
	refs[1] = compactBytes(t, eng, g)
	for i, b := range batches {
		next, added, err := eng.ApplyEdges(ctx, g, b)
		if err != nil {
			t.Fatal(err)
		}
		if added == 0 {
			t.Fatalf("workload batch %d added nothing", i)
		}
		g = next
		refs[uint64(i+2)] = compactBytes(t, eng, g)
	}
	return refs
}

// runCrashWorkload drives the workload against a store on fs, stopping at
// the first error (the simulated crash). It returns the highest version
// acknowledged to the "client" — the durability floor recovery must honor.
func runCrashWorkload(eng *gbbs.Engine, fs vfs.FS, base *gbbs.CSR, batches []*gbbs.UpdateBatch) (acked uint64) {
	ctx := context.Background()
	st := store.New(crashConfig(fs))
	if _, err := st.Create("g", base, "grid:8"); err != nil {
		return 0
	}
	acked = 1
	for _, b := range batches {
		snap, _, err := st.ApplyEdges(ctx, eng, "g", b)
		if err != nil {
			return acked
		}
		acked = snap.Version
	}
	return acked
}

func TestCrashRecoveryProperty(t *testing.T) {
	eng := gbbs.New(gbbs.WithThreads(2))
	defer eng.Close()
	refEng := gbbs.New(gbbs.WithThreads(3))
	defer refEng.Close()
	ctx := context.Background()

	base := buildGrid(t, eng, crashSide)
	batches := crashWorkload()
	refs := referencePrefixes(t, refEng, base, batches)

	// Clean run: count the filesystem operations the workload performs.
	// Every one of them is a crash point.
	probe := vfs.NewFaultFS(vfs.NewMemFS())
	if acked := runCrashWorkload(eng, probe, base, batches); acked != crashMaxVer {
		t.Fatalf("clean run acked version %d, want %d", acked, crashMaxVer)
	}
	totalOps := probe.Ops()
	if totalOps < int64(crashBatches) {
		t.Fatalf("implausible op count %d", totalOps)
	}

	modes := []vfs.CrashMode{vfs.CrashDropUnsynced, vfs.CrashTornUnsynced, vfs.CrashKeepUnsynced}
	stride := int64(1)
	if testing.Short() {
		stride = 7
	}
	for failAt := int64(1); failAt <= totalOps; failAt += stride {
		for mi, mode := range modes {
			if testing.Short() && int(failAt)%len(modes) != mi {
				continue
			}
			mem := vfs.NewMemFS()
			ffs := vfs.NewFaultFS(mem)
			ffs.CrashAt(failAt)
			acked := runCrashWorkload(eng, ffs, base, batches)

			// The process dies; whatever was not fsync'd is at the mercy of
			// the crash mode.
			mem.Crash(mode)

			st := store.New(crashConfig(mem))
			report, err := st.Recover(ctx, eng)
			if err != nil {
				t.Fatalf("failAt=%d mode=%v: recover: %v", failAt, mode, err)
			}
			for _, gr := range report.Graphs {
				if gr.Error != "" {
					t.Fatalf("failAt=%d mode=%v: graph %s unrecoverable: %s", failAt, mode, gr.Name, gr.Error)
				}
			}
			snap, ok := st.Get("g")
			if !ok {
				if acked != 0 {
					t.Fatalf("failAt=%d mode=%v: acked version %d but graph gone after recovery", failAt, mode, acked)
				}
				continue
			}
			v := snap.Version
			if v < acked || v < 1 || v > crashMaxVer {
				t.Fatalf("failAt=%d mode=%v: recovered version %d outside [max(1,%d), %d]", failAt, mode, v, acked, crashMaxVer)
			}
			want, have := refs[v], compactBytes(t, eng, snap.Graph)
			if !bytes.Equal(want, have) {
				t.Fatalf("failAt=%d mode=%v: recovered version %d is not byte-identical to its from-scratch build", failAt, mode, v)
			}
			dur := st.Durability()
			if len(dur) != 1 || dur[0].DurableVersion != v || dur[0].Degraded {
				t.Fatalf("failAt=%d mode=%v: durability %+v after recovery", failAt, mode, dur)
			}
		}
	}
}

// A recovered store is not a dead end: it keeps taking batches, and a
// second crash-recovery round lands on the continued history.
func TestRecoveredStoreContinues(t *testing.T) {
	eng := gbbs.New(gbbs.WithThreads(2))
	defer eng.Close()
	ctx := context.Background()
	base := buildGrid(t, eng, crashSide)
	batches := crashWorkload()
	mem := vfs.NewMemFS()

	if acked := runCrashWorkload(eng, mem, base, batches[:10]); acked != 11 {
		t.Fatalf("first life acked %d", acked)
	}
	mem.Crash(vfs.CrashDropUnsynced)

	st := store.New(crashConfig(mem))
	if _, err := st.Recover(ctx, eng); err != nil {
		t.Fatal(err)
	}
	for _, b := range batches[10:] {
		if _, _, err := st.ApplyEdges(ctx, eng, "g", b); err != nil {
			t.Fatal(err)
		}
	}
	snap, _ := st.Get("g")
	if snap.Version != crashMaxVer {
		t.Fatalf("version %d after continued batches, want %d", snap.Version, crashMaxVer)
	}
	mem.Crash(vfs.CrashDropUnsynced)

	st2 := store.New(crashConfig(mem))
	if _, err := st2.Recover(ctx, eng); err != nil {
		t.Fatal(err)
	}
	snap2, ok := st2.Get("g")
	if !ok || snap2.Version != crashMaxVer {
		t.Fatalf("second recovery at version %d, want %d", snap2.Version, crashMaxVer)
	}
	refEng := gbbs.New(gbbs.WithThreads(1))
	defer refEng.Close()
	refs := referencePrefixes(t, refEng, base, batches)
	if !bytes.Equal(refs[crashMaxVer], compactBytes(t, eng, snap2.Graph)) {
		t.Fatal("twice-recovered graph differs from the from-scratch build")
	}
}

// Degraded mode: a WAL fsync failure must reject the mutation, keep the old
// version serving, and stick — later mutations fail fast with ErrDegraded
// while reads and durability introspection keep working.
func TestDegradedModeOnWALFailure(t *testing.T) {
	eng := gbbs.New(gbbs.WithThreads(2))
	defer eng.Close()
	ctx := context.Background()
	base := buildGrid(t, eng, crashSide)
	batches := crashWorkload()
	mem := vfs.NewMemFS()
	ffs := vfs.NewFaultFS(mem)
	st := store.New(store.Config{DataDir: "data", FS: ffs})
	if _, err := st.Create("g", base, "grid:8"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.ApplyEdges(ctx, eng, "g", batches[0]); err != nil {
		t.Fatal(err)
	}

	// Fail the WAL append's write (and let everything after succeed).
	ffs.FailNext(1)
	_, _, err := st.ApplyEdges(ctx, eng, "g", batches[1])
	if !errors.Is(err, store.ErrDegraded) {
		t.Fatalf("want ErrDegraded, got %v", err)
	}
	// The failed version was never installed.
	snap, _ := st.Get("g")
	if snap.Version != 2 {
		t.Fatalf("version %d after failed apply, want 2", snap.Version)
	}
	// Sticky: the fault is gone but the graph stays read-only.
	if _, _, err := st.ApplyEdges(ctx, eng, "g", batches[2]); !errors.Is(err, store.ErrDegraded) {
		t.Fatalf("degraded mode did not stick: %v", err)
	}
	// Reads still serve the last good version.
	if _, err := ccLabels(ctx, eng, snap.Graph); err != nil {
		t.Fatal(err)
	}
	dur := st.Durability()
	if len(dur) != 1 || !dur[0].Degraded || dur[0].DegradedReason == "" || dur[0].DurableVersion != 2 {
		t.Fatalf("durability %+v, want degraded at durable version 2", dur)
	}

	// A restart against healthy storage clears the condition: everything
	// acknowledged is still there.
	mem.Crash(vfs.CrashDropUnsynced)
	st2 := store.New(store.Config{DataDir: "data", FS: mem})
	if _, err := st2.Recover(ctx, eng); err != nil {
		t.Fatal(err)
	}
	snap2, ok := st2.Get("g")
	if !ok || snap2.Version != 2 {
		t.Fatalf("recovery after degraded life: version %d, want 2", snap2.Version)
	}
	if _, _, err := st2.ApplyEdges(ctx, eng, "g", batches[1]); err != nil {
		t.Fatalf("mutations after restart: %v", err)
	}
}

// An in-memory store must be completely untouched by the persistence layer.
func TestInMemoryStoreUnchanged(t *testing.T) {
	eng := gbbs.New(gbbs.WithThreads(2))
	defer eng.Close()
	st := store.New(store.Config{})
	if st.Persistent() {
		t.Fatal("store without DataDir claims persistence")
	}
	if dur := st.Durability(); dur != nil {
		t.Fatalf("in-memory durability = %+v, want nil", dur)
	}
	if report, err := st.Recover(context.Background(), eng); err != nil || len(report.Graphs) != 0 {
		t.Fatalf("in-memory recover = %+v, %v", report, err)
	}
}

// Persistence on the real filesystem: the OS-backed round trip that the
// smoke test exercises end-to-end through the daemon.
func TestPersistOSRoundTrip(t *testing.T) {
	eng := gbbs.New(gbbs.WithThreads(2))
	defer eng.Close()
	ctx := context.Background()
	base := buildGrid(t, eng, crashSide)
	batches := crashWorkload()
	dir := t.TempDir()

	st := store.New(store.Config{DataDir: dir})
	if _, err := st.Create("g", base, "grid:8"); err != nil {
		t.Fatal(err)
	}
	for _, b := range batches[:5] {
		if _, _, err := st.ApplyEdges(ctx, eng, "g", b); err != nil {
			t.Fatal(err)
		}
	}
	before, _ := st.Get("g")

	st2 := store.New(store.Config{DataDir: dir})
	report, err := st2.Recover(ctx, eng)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Graphs) != 1 || report.Graphs[0].Error != "" {
		t.Fatalf("report %+v", report)
	}
	after, ok := st2.Get("g")
	if !ok || after.Version != before.Version {
		t.Fatalf("recovered version %d, want %d", after.Version, before.Version)
	}
	if !bytes.Equal(compactBytes(t, eng, before.Graph), compactBytes(t, eng, after.Graph)) {
		t.Fatal("OS round trip is not byte-identical")
	}
	if fmt.Sprintf("%v", after.Spec) != "grid:8" {
		t.Fatalf("spec %q lost in recovery", after.Spec)
	}
}
