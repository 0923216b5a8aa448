package models

import (
	"testing"

	"aibench/internal/tensor"
	"aibench/internal/tensor/kerneltest"
)

// TestRunKernelSeesEveryCall is what makes "an op dispatches to the
// kernels of its first placed operand" safe to rely on: for each of
// the 24 benchmarks, one TrainEpoch and one Quality under a counting
// kernel set on the instance's arena must route every kernel call the
// telemetry plane sees through that kernel. A call that reaches no
// parameter-descended operand — a product of two heap constants, a
// target network left out of Module() — falls through to the process
// default, and the two counts differ.
func TestRunKernelSeesEveryCall(t *testing.T) {
	naive, _ := tensor.LookupKernels("naive")
	for _, e := range AllEntries() {
		t.Run(e.ID, func(t *testing.T) {
			b := e.Factory(42)
			counting := kerneltest.Count(naive)
			b.Arena().SetKernels(counting)
			ran := kerneltest.TelemetryCalls(func() {
				b.TrainEpoch()
				b.Quality()
			})
			if got := counting.Calls.Load(); got != ran || ran == 0 {
				t.Errorf("%d of the step's %d kernel calls went through the run's kernel; %d fell through to the process default", got, ran, ran-got)
			}
		})
	}
}
