package gbbs

import (
	"context"
	"reflect"
	"testing"
)

// TestEngineCloseIsIdempotentAndKeepsWorking: Close twice is safe, and a
// closed engine still produces correct (now sequential) results, so a
// request racing an engine-pool eviction cannot be corrupted.
func TestEngineCloseIsIdempotentAndKeepsWorking(t *testing.T) {
	ctx := context.Background()
	eng := New(WithThreads(4))
	g, err := eng.Build(ctx, RMAT(10, 8, 1), Symmetrize())
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	before, err := eng.Run(ctx, "bfs", Request{Graph: g})
	if err != nil {
		t.Fatalf("bfs before Close: %v", err)
	}
	eng.Close()
	eng.Close()
	after, err := eng.Run(ctx, "bfs", Request{Graph: g})
	if err != nil {
		t.Fatalf("bfs after Close: %v", err)
	}
	if !reflect.DeepEqual(before.Value, after.Value) {
		t.Fatal("bfs result changed after Close")
	}
	if _, err := eng.Build(ctx, RMAT(8, 8, 1)); err != nil {
		t.Fatalf("Build after Close: %v", err)
	}
}

// TestEngineReuseAcrossRuns exercises the serving pattern: one engine, many
// sequential Run calls with different per-request seeds, results matching
// fresh-engine runs (Request.Seed overrides the engine default, so warm
// engines never leak randomness between requests).
func TestEngineReuseAcrossRuns(t *testing.T) {
	ctx := context.Background()
	warm := New(WithThreads(4))
	defer warm.Close()
	g, err := warm.Build(ctx, RMAT(10, 8, 1), Symmetrize())
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	for _, seed := range []uint64{1, 7, 42} {
		got, err := warm.Run(ctx, "cc", Request{Graph: g, Seed: Ptr(seed)})
		if err != nil {
			t.Fatalf("warm run seed %d: %v", seed, err)
		}
		fresh := New(WithThreads(4))
		want, err := fresh.Run(ctx, "cc", Request{Graph: g, Seed: Ptr(seed)})
		fresh.Close()
		if err != nil {
			t.Fatalf("fresh run seed %d: %v", seed, err)
		}
		if !reflect.DeepEqual(got.Value, want.Value) {
			t.Fatalf("seed %d: warm engine result diverged from fresh engine", seed)
		}
	}
}
