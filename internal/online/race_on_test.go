//go:build race

package online

// raceEnabled reports whether the race detector is active.
const raceEnabled = true
