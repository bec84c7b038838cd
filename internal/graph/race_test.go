//go:build race

package graph

// raceEnabled skips the allocation budget tests: the race detector's
// instrumentation allocates, so testing.AllocsPerRun reads nothing useful.
const raceEnabled = true
