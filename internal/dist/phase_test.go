package dist_test

import (
	"context"
	"math"
	"strings"
	"testing"

	"aibench/internal/autograd"
	"aibench/internal/dist"
	"aibench/internal/models"
	"aibench/internal/nn"
	"aibench/internal/tensor"
	"aibench/internal/workload"
)

// fakeModule exposes a fixed parameter list.
type fakeModule []*nn.Param

func (m fakeModule) Params() []*nn.Param { return m }

// fakePhased is a two-phase trainer built to catch contract
// violations: phase "first" owns parameter a, phase "second" owns
// parameter b. Every "first" grain also leaks a huge gradient onto b
// (the way a GAN generator loss backpropagates through the critic);
// if per-phase reduces mixed gradients across phases, b's update
// would absorb the leak. Each replica records its own event sequence
// so the declared phase order is checked on every rank.
type fakePhased struct {
	a, b   *nn.Param
	events []string
}

func newFakePhased() *fakePhased {
	return &fakePhased{
		a: &nn.Param{Name: "a", Value: autograd.Var(tensor.New(1))},
		b: &nn.Param{Name: "b", Value: autograd.Var(tensor.New(1))},
	}
}

func (f *fakePhased) Name() string          { return "fake-two-phase" }
func (f *fakePhased) TrainEpoch() float64   { return 0 }
func (f *fakePhased) Quality() float64      { return 0 }
func (f *fakePhased) LowerIsBetter() bool   { return true }
func (f *fakePhased) ScaledTarget() float64 { return 0 }
func (f *fakePhased) Module() nn.Module     { return fakeModule{f.a, f.b} }
func (f *fakePhased) Spec() workload.Model  { return workload.Model{Name: "fake"} }
func (f *fakePhased) Arena() *tensor.Arena  { return nil } // a heap-only workload

func (f *fakePhased) BeginEpoch()        { f.events = append(f.events, "epoch") }
func (f *fakePhased) StepsPerEpoch() int { return 1 }

func (f *fakePhased) Phases() []models.PhaseSpec {
	return []models.PhaseSpec{{Name: "first"}, {Name: "second", Report: true}}
}

func (f *fakePhased) PhaseParams(phase int) []*nn.Param {
	if phase == 0 {
		return []*nn.Param{f.a}
	}
	return []*nn.Param{f.b}
}

func (f *fakePhased) BeginPhase(phase int) []models.Grain {
	f.events = append(f.events, "begin:"+f.phaseName(phase))
	if phase == 0 {
		mk := func(g float64) models.Grain {
			return func() (float64, int) {
				f.a.Value.EnsureGrad().Data[0] += g
				f.b.Value.EnsureGrad().Data[0] += 1e6 // cross-phase leak
				return g, 1
			}
		}
		return []models.Grain{mk(1), mk(3)}
	}
	return []models.Grain{func() (float64, int) {
		// The second phase sees the first phase's update: its gradient
		// is derived from a's post-apply value, so a stale or skipped
		// "first" apply shows up as a wrong b update.
		f.b.Value.EnsureGrad().Data[0] += 10 * f.a.Value.Data.Data[0]
		return 5, 1
	}}
}

func (f *fakePhased) ApplyPhase(phase int) {
	f.events = append(f.events, "apply:"+f.phaseName(phase))
	p := f.PhaseParams(phase)[0]
	p.Value.Data.Data[0] -= p.Value.Grad.Data[0]
}

func (f *fakePhased) phaseName(phase int) string { return f.Phases()[phase].Name }

// TestPhaseOrderAndIsolation drives the engine over the fake trainer
// at several worker counts, asserting (a) every rank executes the
// phases of every step in declared order, (b) per-phase reduces never
// mix gradients across phases, and (c) a later phase observes the
// earlier phase's applied update.
func TestPhaseOrderAndIsolation(t *testing.T) {
	// One step: phase "first" reduces mean(1,3) = 2 onto a (a: 0 → -2),
	// then phase "second" reduces 10·a = -20 onto b (b: 0 → 20). Any
	// cross-phase mixing would pull the 1e6 leak into b.
	const wantA, wantB = -2.0, 20.0
	wantEvents := []string{"epoch", "begin:first", "apply:first", "begin:second", "apply:second"}

	for _, workers := range []int{1, 2, 3, 5} {
		var replicas []*fakePhased
		factory := func(seed int64) models.Benchmark {
			f := newFakePhased()
			replicas = append(replicas, f) // dist.New constructs replicas serially
			return f
		}
		eng, err := dist.New(context.Background(), "", factory, 1, dist.NewLocal(workers))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		loss, err := eng.TrainEpoch()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if loss != 5 {
			t.Errorf("workers=%d: epoch loss %v, want the reporting phase's 5", workers, loss)
		}
		if len(replicas) != workers {
			t.Fatalf("workers=%d: %d replicas constructed", workers, len(replicas))
		}
		for r, f := range replicas {
			if got := strings.Join(f.events, ","); got != strings.Join(wantEvents, ",") {
				t.Errorf("workers=%d rank %d: event order %q, want %q", workers, r, got, wantEvents)
			}
			if got := f.a.Value.Data.Data[0]; math.Float64bits(got) != math.Float64bits(wantA) {
				t.Errorf("workers=%d rank %d: a = %v, want %v", workers, r, got, wantA)
			}
			if got := f.b.Value.Data.Data[0]; math.Float64bits(got) != math.Float64bits(wantB) {
				t.Errorf("workers=%d rank %d: b = %v, want %v", workers, r, got, wantB)
			}
		}
	}
}
