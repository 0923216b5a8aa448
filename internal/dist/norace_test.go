//go:build !race

package dist_test

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
