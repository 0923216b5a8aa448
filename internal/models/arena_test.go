package models

import (
	"math"
	"runtime"
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
	return append(serialEpochs(b, epochs), b.Quality())
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
// training step of the serial driver asks of the Go heap: nothing. The
// draw fills the instance's buffers, the grains are built once, the
// ones columns and the BPR target come from the step's arena, and so do
// the graph nodes over them — as do the step's activations, gradients
// and temporaries.
func TestRankStepSteadyStateAllocs(t *testing.T) {
	b := NewLearningToRank(5)
	tr, err := NewTrainer(b)
	if err != nil {
		t.Fatal(err)
	}
	for b.epoch <= b.teacherEpochs { // into the distillation phase, slabs grown
		if _, err := tr.TrainEpoch(); err != nil {
			t.Fatal(err)
		}
	}
	tr.step()
	if got := testing.AllocsPerRun(20, func() { tr.step() }); got != 0 {
		t.Errorf("a warmed ranking step makes %v mallocs, want 0", got)
	}
}

// warmedEpochCeilings lists the benchmarks whose warmed epoch still
// asks the heap for objects, each with the count measured for it at
// seed 7 before the transformer (DC-AI-C3, MLPerf-TN) and ranking
// (DC-AI-C16) families left the heap. A ceiling may only come down: a
// family that leaves the heap leaves this list, and every benchmark
// not on it must read 0.
var warmedEpochCeilings = map[string]uint64{
	"DC-AI-C1": 261, "DC-AI-C2": 877, "DC-AI-C4": 639, "DC-AI-C5": 896,
	"DC-AI-C6": 1905, "DC-AI-C7": 2004, "DC-AI-C8": 653, "DC-AI-C9": 8604,
	"DC-AI-C10": 395, "DC-AI-C11": 180, "DC-AI-C12": 495, "DC-AI-C13": 230,
	"DC-AI-C14": 996, "DC-AI-C15": 343, "DC-AI-C17": 1616,
	"MLPerf-IC": 261, "MLPerf-ODL": 883, "MLPerf-ODH": 8904, "MLPerf-TR": 2579,
	"MLPerf-RC": 395, "MLPerf-RL": 1081,
}

// TestWarmedEpochAllocatesNothing is the allocation gate of the
// training step: for every benchmark, the third serial epoch plus its
// evaluation — by then every arena slab, node slab and instance buffer
// has grown to what a step needs — must make no heap object, or, for a
// benchmark still on warmedEpochCeilings, no more than its ceiling.
// The count is the process's MemStats.Mallocs delta at GOMAXPROCS 1,
// as testing.AllocsPerRun takes it, so no kernel forks and the count
// does not depend on the host's cores. The ceilings are plain-build
// counts, so a -race build skips the test (CI runs it outside -race).
func TestWarmedEpochAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates on its own; counts are plain-build counts")
	}
	for _, e := range AllEntries() {
		t.Run(e.ID, func(t *testing.T) {
			tr, err := NewTrainer(e.Factory(7))
			if err != nil {
				t.Fatal(err)
			}
			epoch := func() {
				if _, err := tr.TrainEpoch(); err != nil {
					t.Fatal(err)
				}
				if _, err := tr.Quality(); err != nil {
					t.Fatal(err)
				}
			}
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			epoch()
			epoch()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			epoch()
			runtime.ReadMemStats(&after)
			got, ceiling := after.Mallocs-before.Mallocs, warmedEpochCeilings[e.ID]
			if got > ceiling {
				t.Errorf("a warmed epoch and evaluation of %s make %d mallocs, want ≤ %d", e.ID, got, ceiling)
			}
			t.Logf("%s: %d mallocs (ceiling %d)", e.ID, got, ceiling)
		})
	}
}
