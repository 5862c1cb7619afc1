//go:build race

package registry

// raceEnabled reports whether the race detector is active.
const raceEnabled = true
