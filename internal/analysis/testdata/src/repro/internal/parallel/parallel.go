// Package parallel is a fixture stub impersonating the real
// repro/internal/parallel: same import path (under the fixture loader),
// same names for the pieces the analyzers key on — the Scheduler type and
// its Poll method.
package parallel

// Scheduler is the stub of the fork-join runtime handle.
type Scheduler struct{ workers int }

// Poll is the cancellation check ctxpoll looks for.
func (s *Scheduler) Poll() {}

// ForRange runs body over [0, n) sequentially in the stub.
func (s *Scheduler) ForRange(n, grain int, body func(lo, hi int)) { body(0, n) }

// Workers reports the stub worker count.
func (s *Scheduler) Workers() int { return s.workers }
