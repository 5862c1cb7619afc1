//go:build race

package artifact

// raceEnabled reports whether the race detector is active.
const raceEnabled = true
