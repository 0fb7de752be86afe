//go:build race

package rescache

// raceEnabled reports whether the race detector instruments this test
// binary; see race_off_test.go.
const raceEnabled = true
