package models

import (
	"math"
	"sync"
	"testing"

	"aibench/internal/tensor"
)

// trainUnder builds the entry's benchmark, trains it for the given
// epochs and evaluates it once — under whatever arena reset mode the
// caller has set — returning the per-epoch losses with the quality
// appended.
func trainUnder(e Entry, seed int64, epochs int) []float64 {
	b := e.Factory(seed)
	out := make([]float64, 0, epochs+1)
	for ep := 0; ep < epochs; ep++ {
		out = append(out, TrainEpoch(b))
	}
	return append(out, b.Quality())
}

func sameBits(t *testing.T, label string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Errorf("%s: value %d is %v, want bitwise %v (all: %v vs %v)", label, i, got[i], want[i], got, want)
			return
		}
	}
}

// TestNoTensorOutlivesItsStep is the arena's escape-safety test, the
// counterpart of tensor's TestScratchPoolDirtyBuffers: every one of the
// 24 benchmarks trains two epochs and evaluates with Reset poisoning
// what it rewinds — NaN over the floats, zeroed Tensor structs — and
// must reproduce, bit for bit, the losses and quality of the same
// benchmark run with Reset never reusing anything (the heap-equivalent
// reference). A tensor that survives a reset — a cached activation, a
// recurrent state carried into the next step without Detach, a target
// computed last batch — turns the poisoned run's numbers into NaN or
// panics on a nil Data.
func TestNoTensorOutlivesItsStep(t *testing.T) {
	for _, e := range AllEntries() {
		t.Run(e.ID, func(t *testing.T) {
			prev := tensor.SetArenaResetMode(tensor.ResetNever)
			defer tensor.SetArenaResetMode(prev)
			want := trainUnder(e, 42, 2)
			tensor.SetArenaResetMode(tensor.ResetPoison)
			got := trainUnder(e, 42, 2)
			sameBits(t, e.ID+" poisoned vs never-reused", got, want)
			for _, v := range want {
				if math.IsNaN(v) {
					t.Fatalf("reference run produced NaN: %v", want)
				}
			}
			tensor.SetArenaResetMode(tensor.ResetRewind)
			sameBits(t, e.ID+" production vs never-reused", trainUnder(e, 42, 2), want)
		})
	}
}

// TestInstancesShareNoArena trains four copies of four benchmarks at
// once, each instance on its own goroutine — what a suite run with
// Workers: 4 does — under poisoning, so that an arena reachable from
// two instances (a global, a shared parameter) would corrupt a
// neighbour's step and, under -race, be reported outright.
func TestInstancesShareNoArena(t *testing.T) {
	defer tensor.SetArenaResetMode(tensor.SetArenaResetMode(tensor.ResetPoison))
	ids := map[string]bool{"DC-AI-C3": true, "DC-AI-C16": true, "DC-AI-C2": true, "MLPerf-RL": true}
	var picked []Entry
	for _, e := range AllEntries() {
		if ids[e.ID] {
			picked = append(picked, e)
		}
	}
	want := make([][]float64, len(picked))
	for i, e := range picked {
		want[i] = trainUnder(e, 7, 2)
	}
	const copies = 4
	got := make([][]float64, len(picked)*copies)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = trainUnder(picked[i%len(picked)], 7, 2)
		}()
	}
	wg.Wait()
	for i := range got {
		sameBits(t, picked[i%len(picked)].ID+" concurrent vs alone", got[i], want[i%len(picked)])
	}
}

// TestParametersAreAdopted: every parameter of every benchmark is
// placed in its instance's arena, so no forward pass can start on the
// heap. (That adoption allocates no slab — an instance that is only
// characterized or replayed costs nothing — is tensor's
// TestArenaZeroUntilUsedThenSteady.)
func TestParametersAreAdopted(t *testing.T) {
	for _, e := range AllEntries() {
		b := e.Factory(3)
		for _, p := range b.Module().Params() {
			if tensor.ArenaOf(p.Value.Data) != b.Arena() {
				t.Errorf("%s: parameter %s is not adopted into the instance's arena", e.ID, p.Name)
			}
		}
	}
}

// TestRankStepSteadyStateAllocs pins what one warmed DC-AI-C16 student
// training step of the serial driver still asks of the Go heap: the
// dataset draw, the constants the model builds with heap constructors,
// and the step's grain slice and closure — and not one graph node, nor
// one backward, nor one tensor of the step's activations, gradients or
// temporaries.
func TestRankStepSteadyStateAllocs(t *testing.T) {
	b := NewLearningToRank(5)
	for b.epoch <= b.teacherEpochs { // into the distillation phase, slabs grown
		TrainEpoch(b)
	}
	loop := b.serial(b)
	loop.step()
	got := testing.AllocsPerRun(20, func() { loop.step() })
	// 32 measured: six scores (four student, two teacher) of 4 each —
	// a heap ones column (3) and its constant — 3 for the BPR target's
	// ones, 3 for the triple draw, and the grain slice and its closure.
	if got > 35 {
		t.Errorf("a warmed ranking step makes %v mallocs, want ≤ 35", got)
	}
	t.Logf("warmed DC-AI-C16 distillation step: %v mallocs", got)
}
