//go:build !race

package workload

// raceEnabled reports whether the race detector is active; allocation
// assertions are skipped under -race because instrumentation perturbs
// the counts.
const raceEnabled = false
