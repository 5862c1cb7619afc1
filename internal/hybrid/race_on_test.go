//go:build race

package hybrid

// raceEnabled reports whether the race detector is active.
const raceEnabled = true
