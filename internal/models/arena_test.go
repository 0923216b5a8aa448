package models

import (
	"fmt"
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
// seed 7 once the kernel layer stopped allocating, forks included (the
// largest of the amd64 and 386 counts at GOMAXPROCS 1 and 2, which
// differ by a few). A
// ceiling may only come down: a family that leaves the heap leaves
// this list, and every benchmark not on it must read 0.
var warmedEpochCeilings = map[string]uint64{
	"DC-AI-C2": 5, "DC-AI-C4": 234, "DC-AI-C5": 99,
	"DC-AI-C6": 368, "DC-AI-C9": 6932,
	"DC-AI-C10": 312, "DC-AI-C11": 19, "DC-AI-C12": 174, "DC-AI-C13": 17,
	"DC-AI-C14": 953, "DC-AI-C15": 4, "DC-AI-C17": 1534,
	"MLPerf-ODL": 667, "MLPerf-ODH": 7171, "MLPerf-TR": 2348,
	"MLPerf-RC": 312, "MLPerf-RL": 814,
}

// TestWarmedEpochAllocatesNothing is the allocation gate of the
// training step: for every benchmark, the third serial epoch plus its
// evaluation — by then every arena slab, node slab, instance buffer and
// kernel free list has grown to what a step needs — must make no heap
// object, or, for a benchmark still on warmedEpochCeilings, no more
// than its ceiling. The count is the process's MemStats.Mallocs delta,
// as testing.AllocsPerRun takes it, at GOMAXPROCS 1, where no kernel
// forks, and at GOMAXPROCS 2, where the large ones do; one table bounds
// both, since a fork costs the heap nothing (see runtimeSlack for what
// the runtime may add at 2). The ceilings are plain-build counts, so a
// -race build skips the test (CI runs it outside -race).
func TestWarmedEpochAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates on its own; counts are plain-build counts")
	}
	for _, e := range AllEntries() {
		t.Run(e.ID, func(t *testing.T) {
			ceiling := warmedEpochCeilings[e.ID]
			for _, c := range []struct {
				procs, attempts int
				most            uint64
			}{{1, 1, ceiling}, {2, 3, ceiling + runtimeSlack}} {
				t.Run(fmt.Sprintf("GOMAXPROCS=%d", c.procs), func(t *testing.T) {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(c.procs))
					got := uint64(math.MaxUint64)
					for range c.attempts {
						if got = min(got, warmedEpochMallocs(t, e)); got <= c.most {
							break
						}
					}
					if got > c.most {
						t.Errorf("a warmed epoch and evaluation of %s at GOMAXPROCS %d make %d mallocs, want ≤ %d", e.ID, c.procs, got, c.most)
					}
					t.Logf("%s at GOMAXPROCS %d: %d mallocs (ceiling %d)", e.ID, c.procs, got, ceiling)
				})
			}
		})
	}
}

// runtimeSlack is how many objects of the runtime's own an epoch at
// GOMAXPROCS 2 may add to the program's, and that count is the smallest
// of up to three fresh instances'. Two kinds were seen there. A
// goroutine that parks — a worker waiting for a fork, a caller joining
// one — takes a wait record (a sudog) from its P's cache and hands it
// to the cache of the P it wakes on; when a P's cache and the shared
// one are both empty, the runtime allocates one. Most epochs measured
// here made none, a few made 1 or 2. And the first time the process
// needs another OS thread, its descriptors are objects too (5 were
// seen), which a second attempt does not make again. A scratch free
// list that grows to a new peak of buffers held at once is a one-time
// cost of the same kind. A fork that allocated would add hundreds: a
// convolutional epoch forks at every conv pass.
const runtimeSlack = 2

// warmedEpochMallocs builds e's benchmark at seed 7, trains and
// evaluates it for two epochs, and returns the heap objects its third
// epoch and evaluation make.
func warmedEpochMallocs(t *testing.T, e Entry) uint64 {
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
	epoch()
	epoch()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	epoch()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}
