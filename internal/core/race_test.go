//go:build race

package core

// raceEnabled skips the allocation budget tests: the race detector's
// instrumentation allocates, so testing.AllocsPerRun reads nothing useful.
const raceEnabled = true
