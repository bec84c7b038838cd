package parallel

import (
	"sync"
	"sync/atomic"
	"time"
)

// defaultIdleTimeout is how long a pool worker stays parked with no work
// before it exits. Idle pools therefore decay to zero goroutines: an engine
// that is abandoned without Close leaks nothing, and a serving pool that
// sees a gap between requests pays one goroutine re-spawn per worker on the
// next burst — noise at request granularity. Tests shorten it through
// pool.idle to observe the decay quickly.
const defaultIdleTimeout = 250 * time.Millisecond

// task is one published unit of parallel work: either a chunked loop over
// [0, n) (body != nil) or a list of independent functions (funcs). Workers
// and the submitting goroutine claim blocks with the atomic next counter —
// the same dynamic load balancing the spawn-per-call scheduler had — and
// every executed block signals the WaitGroup, so the submitter joins through
// an atomic counter without allocating a channel.
type task struct {
	next   atomic.Int64 // next unclaimed block index
	blocks int64
	n      int
	grain  int
	body   func(lo, hi int) // loop task
	funcs  []func()         // fork-join task (Do); used when body == nil
	wg     sync.WaitGroup   // counts unfinished blocks
}

// run claims and executes blocks until the task is exhausted. It is called
// by pool workers and by the submitting goroutine alike; the submitter's
// call is what makes the pool deadlock-free under nesting — a loop always
// completes even if no worker ever helps.
func (t *task) run() {
	for {
		b := t.next.Add(1) - 1
		if b >= t.blocks {
			return
		}
		t.exec(b)
	}
}

// exec runs block b. wg.Done is deferred so a panicking body cannot strand
// other participants in their join.
func (t *task) exec(b int64) {
	defer t.wg.Done()
	if t.body != nil {
		lo := int(b) * t.grain
		hi := lo + t.grain
		if hi > t.n {
			hi = t.n
		}
		t.body(lo, hi)
		return
	}
	t.funcs[b]()
}

// waiter is one parked worker: a 1-buffered wake channel the pool sends to
// after popping the waiter from its stack, so wakeups are targeted (no
// thundering herd) and a token can never go stale — a waiter is only sent
// to while it is off the stack.
type waiter struct {
	ch chan struct{}
}

// pool is the persistent worker set behind a Scheduler and all of its
// Attach children. Workers are spawned lazily on first demand, park on
// per-worker channels between tasks, and exit after idleTimeout with no
// work, so an unused pool costs nothing and an abandoned one decays to
// zero goroutines.
type pool struct {
	mu      sync.Mutex
	tasks   []*task   // published tasks that may still have unclaimed blocks
	waiters []*waiter // parked workers, top of stack woken first (warm stacks)
	spawned int       // live worker goroutines
	limit   int       // max worker goroutines (scheduler workers - 1); fixed
	closed  bool
	idle    time.Duration
}

func newPool(limit int) *pool {
	return &pool{limit: limit, idle: defaultIdleTimeout}
}

// submit publishes t and recruits up to helpers workers for it: parked
// workers are woken through their channels, and the pool spawns new workers
// while under its limit. The submitting goroutine is expected to call t.run
// itself afterwards; submit never blocks and, on a closed pool, is a no-op
// (the submitter then drains the whole task inline).
func (p *pool) submit(t *task, helpers int) {
	if helpers <= 0 {
		return
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.tasks = append(p.tasks, t)
	for helpers > 0 && len(p.waiters) > 0 {
		w := p.waiters[len(p.waiters)-1]
		p.waiters[len(p.waiters)-1] = nil
		p.waiters = p.waiters[:len(p.waiters)-1]
		w.ch <- struct{}{} // 1-buffered and only sent while popped: never blocks
		helpers--
	}
	for helpers > 0 && p.spawned < p.limit {
		p.spawned++
		go p.worker()
		helpers--
	}
	p.mu.Unlock()
}

// retire removes t from the published list once its claim counter is
// exhausted. Idempotent: pickLocked may already have pruned it.
func (p *pool) retire(t *task) {
	p.mu.Lock()
	for i, x := range p.tasks {
		if x == t {
			last := len(p.tasks) - 1
			p.tasks[i] = p.tasks[last]
			p.tasks[last] = nil
			p.tasks = p.tasks[:last]
			break
		}
	}
	p.mu.Unlock()
}

// pickLocked returns a published task with unclaimed blocks, pruning
// exhausted ones as it scans. Caller holds p.mu.
func (p *pool) pickLocked() *task {
	for i := 0; i < len(p.tasks); {
		t := p.tasks[i]
		if t.next.Load() < t.blocks {
			return t
		}
		last := len(p.tasks) - 1
		p.tasks[i] = p.tasks[last]
		p.tasks[last] = nil
		p.tasks = p.tasks[:last]
	}
	return nil
}

// close parks the pool permanently: parked workers are woken to exit, no
// new workers spawn, and subsequent submits are no-ops (loops then run
// entirely on their submitting goroutines). Workers busy on a task finish
// it before exiting.
func (p *pool) close() {
	p.mu.Lock()
	p.closed = true
	for _, w := range p.waiters {
		w.ch <- struct{}{}
	}
	p.waiters = nil
	p.mu.Unlock()
}

// workerCount reports live worker goroutines (for tests and stats).
func (p *pool) workerCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.spawned
}

// worker is the body of one pool goroutine: claim work while any is
// published, otherwise park on a private channel; exit when the pool is
// closed or idle past the timeout.
func (p *pool) worker() {
	w := &waiter{ch: make(chan struct{}, 1)}
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	defer timer.Stop()

	p.mu.Lock()
	for {
		if t := p.pickLocked(); t != nil {
			p.mu.Unlock()
			t.run()
			p.mu.Lock()
			continue
		}
		if p.closed {
			p.spawned--
			p.mu.Unlock()
			return
		}
		// Park. The waiter is pushed under the lock, so any submit that
		// follows sees it and wakes it through its channel; there is no
		// window for a lost wakeup.
		p.waiters = append(p.waiters, w)
		idle := p.idle
		p.mu.Unlock()

		timer.Reset(idle)
		select {
		case <-w.ch:
			if !timer.Stop() {
				<-timer.C
			}
			p.mu.Lock()
		case <-timer.C:
			p.mu.Lock()
			if p.removeWaiterLocked(w) {
				// Timed out while still parked: exit unless work appeared
				// in the race window (then loop around and take it).
				if p.pickLocked() == nil {
					p.spawned--
					p.mu.Unlock()
					return
				}
				continue
			}
			// A submit popped us concurrently with the timeout: its wake
			// token is in flight (or already buffered) — consume it so the
			// channel is clean before the next park.
			p.mu.Unlock()
			<-w.ch
			p.mu.Lock()
		}
	}
}

// removeWaiterLocked removes w from the parked stack, reporting whether it
// was still there. Caller holds p.mu.
func (p *pool) removeWaiterLocked(w *waiter) bool {
	for i, x := range p.waiters {
		if x == w {
			last := len(p.waiters) - 1
			p.waiters[i] = p.waiters[last]
			p.waiters[last] = nil
			p.waiters = p.waiters[:last]
			return true
		}
	}
	return false
}
