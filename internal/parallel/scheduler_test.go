package parallel

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

func TestSchedulerIsolatedWorkerCounts(t *testing.T) {
	a := New(1)
	b := New(6)
	if a.Workers() != 1 || b.Workers() != 6 {
		t.Fatalf("workers: %d, %d", a.Workers(), b.Workers())
	}
}

func TestSchedulerClampsToOneWorker(t *testing.T) {
	if New(-3).Workers() != 1 {
		t.Fatal("New(-3) did not clamp to 1")
	}
	if New(0).Workers() != 1 {
		t.Fatal("New(0) did not clamp to 1")
	}
}

func TestSchedulerForRangeCoversAll(t *testing.T) {
	for _, p := range []int{1, 2, 8} {
		s := New(p)
		const n = 10000
		var sum atomic.Int64
		s.ForRange(n, 64, func(lo, hi int) {
			local := int64(0)
			for i := lo; i < hi; i++ {
				local += int64(i)
			}
			sum.Add(local)
		})
		if want := int64(n) * (n - 1) / 2; sum.Load() != want {
			t.Fatalf("p=%d: sum %d, want %d", p, sum.Load(), want)
		}
	}
}

func TestSchedulerFixedGrain(t *testing.T) {
	s := NewWithGrain(4, 100)
	bounds := s.Blocks(1000, 0)
	if len(bounds) != 11 {
		t.Fatalf("fixed grain 100 over 1000 items: %d bounds, want 11", len(bounds))
	}
	// An explicit grain still wins over the scheduler default.
	bounds = s.Blocks(1000, 500)
	if len(bounds) != 3 {
		t.Fatalf("explicit grain 500: %d bounds, want 3", len(bounds))
	}
}

func TestConcurrentSchedulersDontInterfere(t *testing.T) {
	var wg sync.WaitGroup
	for _, p := range []int{1, 2, 4, 8} {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			s := New(p)
			for iter := 0; iter < 20; iter++ {
				var count atomic.Int64
				s.For(5000, 128, func(i int) { count.Add(1) })
				if count.Load() != 5000 {
					t.Errorf("p=%d: %d iterations", p, count.Load())
					return
				}
			}
		}(p)
	}
	wg.Wait()
}

func TestAttachPollPanicsAfterCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	s := New(2).Attach(ctx)
	s.Poll() // not cancelled yet: must not panic
	cancel()
	err := func() (err error) {
		defer RecoverStop(&err)
		s.Poll()
		return nil
	}()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestAttachBackgroundIsNoop(t *testing.T) {
	s := New(3).Attach(context.Background())
	if s.Workers() != 3 {
		t.Fatalf("Attach lost worker count: %d", s.Workers())
	}
	s.Poll() // no signal attached: never panics
	var nilCtxChild *Scheduler = New(2).Attach(nil)
	nilCtxChild.Poll()
}

func TestRecoverStopRepanicsForeignPanics(t *testing.T) {
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v, want boom", r)
		}
	}()
	var err error
	func() {
		defer RecoverStop(&err)
		panic("boom")
	}()
}
