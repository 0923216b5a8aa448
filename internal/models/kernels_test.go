package models

import (
	"testing"

	"aibench/internal/telemetry"
	"aibench/internal/tensor"
	"aibench/internal/tensor/kerneltest"
)

// TestRunKernelSeesEveryCall is what makes "an op dispatches under the
// run of its first placed operand" safe to rely on, for the run's
// kernels and for its trace alike: for each of the 24 benchmarks, one
// TrainEpoch and one Quality under a counting kernel and a Counters set
// on the instance's arena must route every kernel call through that
// run. A call that reaches no parameter-descended operand — a product
// of two heap constants, a target network left out of Module() — falls
// through to the process default and moves tensor.UnplacedDispatches.
func TestRunKernelSeesEveryCall(t *testing.T) {
	naive, _ := tensor.LookupKernels("naive")
	for _, e := range AllEntries() {
		t.Run(e.ID, func(t *testing.T) {
			b := e.Factory(42)
			counting, counters := kerneltest.Count(naive), new(telemetry.Counters)
			b.Arena().SetRun(&tensor.Run{Kernels: counting, Counters: counters})
			before := tensor.UnplacedDispatches()
			b.TrainEpoch()
			b.Quality()
			fell, traced := tensor.UnplacedDispatches()-before, kerneltest.Traced(counters)
			if got := counting.Calls.Load(); fell != 0 || got == 0 || traced != got {
				t.Errorf("%d kernel calls went through the run's kernel, %d into its counters; %d fell through to the process default", got, traced, fell)
			}
		})
	}
}

// TestFactoriesDispatchNothing pins why construction-time ops are a
// non-issue: a factory runs before the run can claim the instance's
// arena, so a kernel call made there would compute on the process
// default and appear in no trace — and none of the 24 makes one.
func TestFactoriesDispatchNothing(t *testing.T) {
	for _, e := range AllEntries() {
		before := tensor.UnplacedDispatches()
		e.Factory(42)
		if fell := tensor.UnplacedDispatches() - before; fell != 0 {
			t.Errorf("%s: constructing the benchmark made %d kernel calls", e.ID, fell)
		}
	}
}
