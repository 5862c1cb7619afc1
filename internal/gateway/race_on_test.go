//go:build race

package gateway

// raceEnabled reports whether the race detector is active.
const raceEnabled = true
