package store_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/gbbs"
	"repro/gbbs/store"
)

func buildGrid(t testing.TB, e *gbbs.Engine, side int) *gbbs.CSR {
	t.Helper()
	src, err := gbbs.ParseSource(fmt.Sprintf("grid:%d", side))
	if err != nil {
		t.Fatal(err)
	}
	g, err := e.BuildCSR(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestStoreLifecycle(t *testing.T) {
	e := gbbs.New(gbbs.WithThreads(2))
	defer e.Close()
	st := store.New(store.Config{})
	ctx := context.Background()
	g := buildGrid(t, e, 10)

	snap, err := st.Create("g", g, "grid:10")
	if err != nil {
		t.Fatal(err)
	}
	if snap.Version != 1 || snap.ID() != "store(name=g,version=1)" {
		t.Fatalf("snap=%+v id=%s", snap, snap.ID())
	}
	if _, err := st.Create("g", g, "grid:10"); err == nil {
		t.Fatal("duplicate create accepted")
	}
	for _, bad := range []string{"", "a b", "x/y", "store(name=", "a,b"} {
		if _, err := st.Create(bad, g, "s"); err == nil {
			t.Fatalf("invalid name %q accepted", bad)
		}
	}

	// Grid2D(10) connects (x,y) neighbors; vertex 0 and vertex 99 are in
	// one component, so this batch adds a genuinely new edge.
	batch := &gbbs.UpdateBatch{N: g.N(), U: []uint32{0}, V: []uint32{99}}
	snap2, added, err := st.ApplyEdges(ctx, e, "g", batch)
	if err != nil {
		t.Fatal(err)
	}
	if added == 0 || snap2.Version != 2 {
		t.Fatalf("added=%d version=%d", added, snap2.Version)
	}
	// Same batch again: idempotent, version unchanged.
	snap3, added, err := st.ApplyEdges(ctx, e, "g", batch)
	if err != nil {
		t.Fatal(err)
	}
	if added != 0 || snap3.Version != 2 {
		t.Fatalf("re-apply: added=%d version=%d", added, snap3.Version)
	}

	infos := st.List()
	if len(infos) != 1 || infos[0].Name != "g" || infos[0].Version != 2 || infos[0].Spec != "grid:10" {
		t.Fatalf("list=%+v", infos)
	}
	got, ok := st.Get("g")
	if !ok || got.Version != 2 || got.Graph != snap2.Graph {
		t.Fatalf("get=%+v ok=%v", got, ok)
	}
	if !st.Remove("g") || st.Remove("g") {
		t.Fatal("remove semantics")
	}
	if _, _, err := st.ApplyEdges(ctx, e, "g", batch); err == nil {
		t.Fatal("apply to removed graph accepted")
	}
}

// TestStoreSentinelErrors pins the two name errors callers match with
// errors.Is, and that wrapping them left the messages unchanged.
func TestStoreSentinelErrors(t *testing.T) {
	e := gbbs.New(gbbs.WithThreads(1))
	defer e.Close()
	st := store.New(store.Config{})
	g := buildGrid(t, e, 4)
	if _, err := st.Create("g", g, "grid:4"); err != nil {
		t.Fatal(err)
	}
	_, err := st.Create("g", g, "grid:4")
	if !errors.Is(err, store.ErrExists) || err.Error() != `store: graph "g" already exists` {
		t.Fatalf("duplicate create err = %v, want ErrExists", err)
	}
	batch := &gbbs.UpdateBatch{N: g.N(), U: []uint32{0}, V: []uint32{5}}
	_, _, err = st.ApplyEdges(context.Background(), e, "nope", batch)
	if !errors.Is(err, store.ErrNotFound) || err.Error() != `store: unknown graph "nope"` {
		t.Fatalf("apply to unknown graph err = %v, want ErrNotFound", err)
	}
}

func TestStoreCompaction(t *testing.T) {
	e := gbbs.New(gbbs.WithThreads(2))
	defer e.Close()
	// Tiny threshold: any delta compacts immediately.
	st := store.New(store.Config{CompactFraction: 1e-9})
	ctx := context.Background()
	g := buildGrid(t, e, 8)
	if _, err := st.Create("g", g, "grid:8"); err != nil {
		t.Fatal(err)
	}
	snap, _, err := st.ApplyEdges(ctx, e, "g", &gbbs.UpdateBatch{N: g.N(), U: []uint32{0, 1}, V: []uint32{30, 40}})
	if err != nil {
		t.Fatal(err)
	}
	csr, ok := snap.Graph.(*gbbs.CSR)
	if !ok {
		t.Fatalf("snapshot not compacted: %T", snap.Graph)
	}
	// Compacted result must equal the overlay built without compaction.
	st2 := store.New(store.Config{CompactFraction: -1})
	if _, err := st2.Create("g", g, "grid:8"); err != nil {
		t.Fatal(err)
	}
	snap2, _, err := st2.ApplyEdges(ctx, e, "g", &gbbs.UpdateBatch{N: g.N(), U: []uint32{0, 1}, V: []uint32{30, 40}})
	if err != nil {
		t.Fatal(err)
	}
	ov, ok := snap2.Graph.(*gbbs.Overlay)
	if !ok {
		t.Fatalf("compaction not disabled: %T", snap2.Graph)
	}
	want, err := e.Compact(ctx, ov)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(csr, want) {
		t.Fatal("in-path compaction differs from explicit compaction")
	}
}

// ccLabels runs "incrcc" on g from scratch (no Request.Incr), giving the
// canonical labelling a CCState carries.
func ccLabels(ctx context.Context, e *gbbs.Engine, g gbbs.Graph) ([]uint32, error) {
	res, err := e.Run(ctx, "incrcc", gbbs.Request{Graph: g})
	if err != nil {
		return nil, err
	}
	return res.Value.([]uint32), nil
}

func TestStoreCCStateRoundTrip(t *testing.T) {
	e := gbbs.New(gbbs.WithThreads(2))
	defer e.Close()
	st := store.New(store.Config{})
	ctx := context.Background()
	g := buildGrid(t, e, 8)
	if _, err := st.Create("g", g, "grid:8"); err != nil {
		t.Fatal(err)
	}
	if st.CCState("g", 1) != nil {
		t.Fatal("state before any save")
	}
	labels1, err := ccLabels(ctx, e, g)
	if err != nil {
		t.Fatal(err)
	}
	st.SaveCC("g", 1, labels1)
	state := st.CCState("g", 1)
	if state == nil || len(state.Batches) != 0 || !slices.Equal(state.Labels, labels1) {
		t.Fatalf("state at saved version: %+v", state)
	}

	b1 := &gbbs.UpdateBatch{N: g.N(), U: []uint32{0}, V: []uint32{37}}
	b2 := &gbbs.UpdateBatch{N: g.N(), U: []uint32{2}, V: []uint32{51}}
	if _, _, err := st.ApplyEdges(ctx, e, "g", b1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.ApplyEdges(ctx, e, "g", b2); err != nil {
		t.Fatal(err)
	}
	state = st.CCState("g", 3)
	if state == nil || len(state.Batches) != 2 || state.Batches[0] != b1 || state.Batches[1] != b2 {
		t.Fatalf("state after two updates: %+v", state)
	}
	// Asking for the older version returns only its prefix of batches.
	if mid := st.CCState("g", 2); mid == nil || len(mid.Batches) != 1 || mid.Batches[0] != b1 {
		t.Fatalf("state at version 2: %+v", mid)
	}
	// A newer save trims the log; stale saves are ignored.
	snap, _ := st.Get("g")
	labels3, err := ccLabels(ctx, e, snap.Graph)
	if err != nil {
		t.Fatal(err)
	}
	st.SaveCC("g", 3, labels3)
	st.SaveCC("g", 1, labels1) // stale, ignored
	state = st.CCState("g", 3)
	if state == nil || len(state.Batches) != 0 || !slices.Equal(state.Labels, labels3) {
		t.Fatalf("state after trim: %+v", state)
	}
	// Labels newer than the requested snapshot are unusable.
	if st.CCState("g", 2) != nil {
		t.Fatal("newer labels offered for older snapshot")
	}
}

func TestStoreLogOverflowDropsState(t *testing.T) {
	e := gbbs.New(gbbs.WithThreads(2))
	defer e.Close()
	st := store.New(store.Config{MaxLogEdges: 2})
	ctx := context.Background()
	g := buildGrid(t, e, 8)
	if _, err := st.Create("g", g, "grid:8"); err != nil {
		t.Fatal(err)
	}
	labels, err := ccLabels(ctx, e, g)
	if err != nil {
		t.Fatal(err)
	}
	st.SaveCC("g", 1, labels)
	if _, _, err := st.ApplyEdges(ctx, e, "g", &gbbs.UpdateBatch{N: g.N(), U: []uint32{0, 1}, V: []uint32{30, 40}}); err != nil {
		t.Fatal(err)
	}
	// This batch overflows the 2-edge log budget: state is dropped.
	if _, _, err := st.ApplyEdges(ctx, e, "g", &gbbs.UpdateBatch{N: g.N(), U: []uint32{2}, V: []uint32{50}}); err != nil {
		t.Fatal(err)
	}
	if st.CCState("g", 3) != nil {
		t.Fatal("state survived log overflow")
	}
	// And the incremental chain cannot silently resume from the stale
	// labelling: a save for the current version re-seeds it.
	snap, _ := st.Get("g")
	labels3, err := ccLabels(ctx, e, snap.Graph)
	if err != nil {
		t.Fatal(err)
	}
	st.SaveCC("g", 3, labels3)
	if st.CCState("g", 3) == nil {
		t.Fatal("re-seeded state missing")
	}
}

func TestStoreConcurrentApplyAndRead(t *testing.T) {
	e := gbbs.New(gbbs.WithThreads(4))
	defer e.Close()
	st := store.New(store.Config{})
	ctx := context.Background()
	g := buildGrid(t, e, 16)
	if _, err := st.Create("g", g, "grid:16"); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				u := uint32(w*8 + i)
				if _, _, err := st.ApplyEdges(ctx, e, "g", &gbbs.UpdateBatch{N: g.N(), U: []uint32{u}, V: []uint32{255 - u}}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 16; i++ {
				snap, ok := st.Get("g")
				if !ok {
					t.Error("graph vanished")
					return
				}
				// Run connectivity on whatever version we got; the
				// snapshot must stay coherent while updates land.
				if _, err := ccLabels(ctx, e, snap.Graph); err != nil {
					t.Error(err)
					return
				}
				st.List()
				st.CCState("g", snap.Version)
			}
		}()
	}
	wg.Wait()
	snap, _ := st.Get("g")
	if snap.Version < 2 {
		t.Fatalf("version=%d after concurrent updates", snap.Version)
	}
}
