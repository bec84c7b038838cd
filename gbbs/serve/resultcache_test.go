package serve

import (
	"context"
	"sync/atomic"
	"testing"
	"time"
)

// fakeRun returns an execution producing a small distinct RunResponse and
// counting its invocations.
func fakeRun(runs *atomic.Int64, summary string) func(ctx context.Context) (RunResponse, error) {
	return func(ctx context.Context) (RunResponse, error) {
		runs.Add(1)
		var resp RunResponse
		resp.Algorithm = "test"
		resp.Result.Summary = summary
		return resp, nil
	}
}

func TestResultCacheDisabledRetention(t *testing.T) {
	c := NewResultCache(-1)
	var runs atomic.Int64
	for i := 0; i < 2; i++ {
		if _, hit, err := c.GetOrRun(context.Background(), "k", fakeRun(&runs, "x")); err != nil || hit {
			t.Fatalf("run %d: hit=%v err=%v", i, hit, err)
		}
	}
	if runs.Load() != 2 {
		t.Fatalf("disabled retention still served from cache (runs=%d)", runs.Load())
	}
	if st := c.Stats(); len(st.Entries) != 0 || st.SizeBytes != 0 {
		t.Fatalf("stats = %+v, want empty", st)
	}
}

// TestResultCacheWaiterRetriesExecutorFailure checks a waiter does not
// inherit the executor's own cancellation: when the joined run fails, a
// still-live waiter re-runs (executing itself) and succeeds.
func TestResultCacheWaiterRetriesExecutorFailure(t *testing.T) {
	c := NewResultCache(1 << 20)
	started := make(chan struct{})
	release := make(chan struct{})
	go c.GetOrRun(context.Background(), "k", func(ctx context.Context) (RunResponse, error) { //nolint:errcheck
		close(started)
		<-release
		return RunResponse{}, context.Canceled // the executor's client went away
	})
	<-started

	type out struct {
		resp RunResponse
		hit  bool
		err  error
	}
	var waiterRuns atomic.Int64
	done := make(chan out, 1)
	go func() {
		resp, hit, err := c.GetOrRun(context.Background(), "k", fakeRun(&waiterRuns, "mine"))
		done <- out{resp, hit, err}
	}()
	time.Sleep(30 * time.Millisecond) // let the waiter park on the in-flight entry
	close(release)

	got := <-done
	if got.err != nil || got.resp.Result.Summary != "mine" {
		t.Fatalf("waiter result = %+v, want its own successful execution", got)
	}
	if waiterRuns.Load() != 1 {
		t.Fatalf("waiter executed %d times, want 1", waiterRuns.Load())
	}
	// The retried success is resident for future requests, and the failed
	// join was not counted as a hit: leader miss + waiter's retry miss +
	// the final resident hit.
	if _, hit, _ := c.GetOrRun(context.Background(), "k", fakeRun(&waiterRuns, "x")); !hit {
		t.Fatal("retried result was not cached")
	}
	if hits, misses, entries := c.Counters(); hits != 1 || misses != 2 || entries != 1 {
		t.Fatalf("counters = %d hits / %d misses / %d entries, want 1/2/1", hits, misses, entries)
	}
}
