//go:build race

package ligra

// raceEnabled skips the allocation budget tests: the race detector's
// instrumentation allocates, so testing.AllocsPerRun reads nothing useful.
const raceEnabled = true
