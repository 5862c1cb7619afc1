//go:build race

package workload

// raceEnabled reports whether the race detector is active.
const raceEnabled = true
