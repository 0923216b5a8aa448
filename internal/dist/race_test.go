//go:build race

package dist_test

// raceEnabled reports a -race build, whose instrumented runtime makes
// heap objects of its own: allocation counts mean nothing there.
const raceEnabled = true
