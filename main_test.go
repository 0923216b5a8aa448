package aibench_test

import (
	"fmt"
	"os"
	"testing"

	"aibench"
	"aibench/internal/dist"
)

// TestMain lets the root test binary double as the process backend's
// worker executable: the backend re-execs os.Executable() with
// dist.WorkerEnv set, and dispatching on it here turns the child into
// a frame-serving replica instead of a recursive test run.
func TestMain(m *testing.M) {
	if os.Getenv(dist.WorkerEnv) != "" {
		if err := aibench.RunDistWorker(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}
