// Package gbbs is a fixture impersonating the public facade, which
// exporteddoc holds to the documentation bar (the acceptance case "an
// undocumented export in gbbs").
package gbbs

import "repro/internal/parallel"

// Workers reports a scheduler's worker count; documented: clean.
func Workers(s *parallel.Scheduler) int { return s.Workers() }

func Undocumented(s *parallel.Scheduler) int { return s.Workers() } // want `undocumented exported identifier: func Undocumented`

// Options is documented, but one of its exported fields is not.
type Options struct {
	Threads int // Threads is the worker count.

	// want+2 `undocumented exported identifier: field Options\.Seed`

	Seed int64
}

// want+2 `undocumented exported identifier: var Threshold`

var Threshold = 3

// Runner is documented, but its exported interface method is not.
type Runner interface {
	// want+2 `undocumented exported identifier: method Runner\.Run`

	Run(opt Options) error
}
