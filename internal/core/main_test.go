package core

import (
	"fmt"
	"os"
	"testing"

	"aibench/internal/dist"
)

// TestMain lets this test binary double as the process backend's
// worker executable, as internal/dist's does: the backend re-execs
// os.Executable() with WorkerEnv set, and dispatching on it here turns
// the child into a frame-serving replica instead of a recursive test
// run.
func TestMain(m *testing.M) {
	if os.Getenv(dist.WorkerEnv) != "" {
		if err := dist.WorkerMain(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}
