//go:build !race

package ligra

const raceEnabled = false
