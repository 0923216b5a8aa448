package dist_test

import (
	"fmt"
	"os"
	"testing"

	"aibench/internal/dist"
)

// TestMain lets this test binary double as the process backend's
// worker executable: the backend re-execs os.Executable(), which under
// `go test` is the test binary itself, and marks the child with
// WorkerEnv. Dispatching on the environment (before flag parsing ever
// sees the fake argv) turns the child into a frame-serving replica
// instead of a recursive test run.
func TestMain(m *testing.M) {
	if os.Getenv(dist.WorkerEnv) != "" {
		applyArenaModeFromEnv()
		if err := dist.WorkerMain(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}
