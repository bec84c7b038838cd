// Package core is a fixture impersonating the algorithm package: it is in
// ctxpoll's checked scope. Each function demonstrates one shape of the
// round-loop rule.
package core

import (
	"repro/internal/ligra"
	"repro/internal/parallel"
)

// RoundLoopNoPoll spins on scheduler work with no reachable poll: flagged.
func RoundLoopNoPoll(s *parallel.Scheduler, n int) {
	for n > 0 { // want `round loop issues scheduler work but never reaches a cancellation poll`
		n = ligra.EdgeMapNoPoll(s, n)
	}
}

// RoundLoopDirectPoll polls at the top of each round: clean.
func RoundLoopDirectPoll(s *parallel.Scheduler, n int) {
	for n > 0 {
		s.Poll()
		n = ligra.EdgeMapNoPoll(s, n)
	}
}

// RoundLoopHelperPolls polls through a helper in another package; the fact
// ctxpoll recorded when it analyzed the ligra fixture makes this clean
// without any allowlist.
func RoundLoopHelperPolls(s *parallel.Scheduler, n int) {
	for n > 0 {
		n = ligra.EdgeMapPoll(s, n)
	}
}

// localPoller polls; the intra-package fixpoint marks it as polling.
func localPoller(s *parallel.Scheduler) { s.Poll() }

// RoundLoopLocalHelper polls through a same-package helper: clean.
func RoundLoopLocalHelper(s *parallel.Scheduler, n int) {
	for n > 0 {
		localPoller(s)
		n = ligra.EdgeMapNoPoll(s, n)
	}
}

// InfiniteNoPoll is the `for {` shape with scheduler work and no poll:
// flagged.
func InfiniteNoPoll(s *parallel.Scheduler, done func() bool) {
	for { // want `round loop issues scheduler work but never reaches a cancellation poll`
		s.ForRange(8, 0, func(lo, hi int) {})
		if done() {
			return
		}
	}
}

// SpinNoSchedulerWork does no parallel work per iteration — it is not a
// round loop, and bounded chases like union-find's root() stay clean.
func SpinNoSchedulerWork(parents []uint32, v uint32) uint32 {
	for {
		p := parents[v]
		if p == v {
			return v
		}
		v = p
	}
}

// BoundedThreeClause is a plain counted loop: out of scope by shape.
func BoundedThreeClause(s *parallel.Scheduler, n int) {
	for i := 0; i < n; i++ {
		s.ForRange(8, 0, func(lo, hi int) {})
	}
}

// AllowedByDirective demonstrates the per-site escape hatch.
func AllowedByDirective(s *parallel.Scheduler, n int) {
	//gbbs:lint-allow ctxpoll fixture demonstrating the justified escape hatch
	for n > 0 {
		n = ligra.EdgeMapNoPoll(s, n)
	}
}
