//go:build !race

package rescache

// raceEnabled reports whether the race detector instruments this test
// binary. Allocation gates are skipped under -race, whose instrumentation
// allocates on its own.
const raceEnabled = false
