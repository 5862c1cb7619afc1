//go:build race

package experiments

// raceEnabled reports whether the race detector is active.
const raceEnabled = true
