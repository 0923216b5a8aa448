//go:build race

package models

// raceEnabled reports a -race build, whose instrumented runtime makes
// heap objects of its own: allocation counts mean nothing there.
const raceEnabled = true
