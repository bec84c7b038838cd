package serve

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/gbbs"
)

func TestCacheWaiterDeadlineDoesNotAbortBuild(t *testing.T) {
	c := NewCache(context.Background(), 1<<20)
	var builds atomic.Int64
	release := make(chan struct{})
	slow := func(ctx context.Context) (gbbs.Graph, error) {
		builds.Add(1)
		<-release
		return gbbs.New(gbbs.WithThreads(1)).Build(ctx, gbbs.Path(10), gbbs.Symmetrize())
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, _, err := c.GetOrBuild(ctx, "k", slow); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	close(release)
	// The detached build completes and serves the next request as a hit.
	g, hit, err := c.GetOrBuild(context.Background(), "k", slow)
	if err != nil || !hit || g == nil {
		t.Fatalf("after detached build: g=%v hit=%v err=%v", g, hit, err)
	}
	if got := builds.Load(); got != 1 {
		t.Fatalf("builds = %d, want 1 (deadline must not abort or retrigger)", got)
	}
}

func TestApproxGraphBytes(t *testing.T) {
	eng := gbbs.New(gbbs.WithThreads(1))
	g, err := eng.Build(context.Background(), gbbs.Path(100), gbbs.Symmetrize())
	if err != nil {
		t.Fatal(err)
	}
	// 8*(n+1) offsets + 4*m edges = 8*101 + 4*198.
	if got := approxGraphBytes(g); got != 8*101+4*198 {
		t.Fatalf("approxGraphBytes(sym path) = %d", got)
	}
	cg, err := eng.Build(context.Background(), gbbs.Path(100), gbbs.Symmetrize(), gbbs.EncodeCompressed(0))
	if err != nil {
		t.Fatal(err)
	}
	if got := approxGraphBytes(cg); got <= 0 {
		t.Fatalf("approxGraphBytes(compressed) = %d", got)
	}
	// A directed compressed graph is charged for both encoded directions,
	// each with its own degree and offset tables.
	dcg, err := eng.Build(context.Background(), gbbs.RMAT(8, 8, 1), gbbs.EncodeCompressed(0))
	if err != nil {
		t.Fatal(err)
	}
	out, in := dcg.(*gbbs.Compressed), dcg.Transpose().(*gbbs.Compressed)
	if want := out.SizeBytes() + in.SizeBytes() + 2*12*int64(dcg.N()); approxGraphBytes(dcg) != want {
		t.Fatalf("approxGraphBytes(directed compressed) = %d, want %d", approxGraphBytes(dcg), want)
	}
}
