// Package ligra is a fixture stub impersonating the Ligra layer. It is in
// ctxpoll's checked scope (and stays clean), and its two helpers exercise
// the cross-package fact: a round loop in the core fixture that calls
// EdgeMapPoll is recognized as polling, one that only calls EdgeMapNoPoll
// is flagged.
package ligra

import "repro/internal/parallel"

// EdgeMapPoll does one round of scheduler work and polls; ctxpoll records
// it as polling.
func EdgeMapPoll(s *parallel.Scheduler, n int) int {
	s.Poll()
	s.ForRange(n, 0, func(lo, hi int) {})
	return n / 2
}

// EdgeMapNoPoll does one round of scheduler work without polling.
func EdgeMapNoPoll(s *parallel.Scheduler, n int) int {
	s.ForRange(n, 0, func(lo, hi int) {})
	return n / 2
}
