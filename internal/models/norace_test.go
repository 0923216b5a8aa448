//go:build !race

package models

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
