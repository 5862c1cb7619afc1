//go:build !race

package experiments

// raceEnabled reports whether the race detector is active; allocation
// assertions are skipped under -race because instrumentation perturbs
// the counts.
const raceEnabled = false
