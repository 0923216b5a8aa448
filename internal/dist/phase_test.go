package dist_test

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"aibench/internal/autograd"
	"aibench/internal/dist"
	"aibench/internal/models"
	"aibench/internal/nn"
	"aibench/internal/tensor"
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
// so the declared phase order is checked on every rank. Phase "first"
// draws two units whose gradients on a are 1 and 3; a grain's gradient
// is its units' mean. phases is the declared phase list.
type fakePhased struct {
	a, b   *nn.Param
	events []string
	phases []models.PhaseSpec
}

func newFakePhased() *fakePhased {
	return &fakePhased{
		a:      &nn.Param{Name: "a", Value: autograd.Var(tensor.New(1))},
		b:      &nn.Param{Name: "b", Value: autograd.Var(tensor.New(1))},
		phases: []models.PhaseSpec{{Name: "first"}, {Name: "second", Report: true}},
	}
}

func (f *fakePhased) Quality() float64     { return 0 }
func (f *fakePhased) Module() nn.Module    { return fakeModule{f.a, f.b} }
func (f *fakePhased) Arena() *tensor.Arena { return nil } // a heap-only workload

func (f *fakePhased) BeginEpoch()           { f.events = append(f.events, "epoch") }
func (f *fakePhased) StepsPerEpoch(int) int { return 1 }

func (f *fakePhased) Phases() []models.PhaseSpec { return f.phases }

func (f *fakePhased) PhaseParams(phase int) []*nn.Param {
	if phase == 0 {
		return []*nn.Param{f.a}
	}
	return []*nn.Param{f.b}
}

func (f *fakePhased) BeginPhase(phase, _ int) int {
	f.events = append(f.events, "begin:"+f.phaseName(phase))
	if phase == 0 {
		return 2
	}
	return 1
}

// firstUnits is the gradient phase "first" puts on a per unit.
var firstUnits = []float64{1, 3}

func (f *fakePhased) Grain(phase, lo, hi int) (float64, int) {
	if phase == 0 {
		g := 0.0
		for _, u := range firstUnits[lo:hi] {
			g += u
		}
		g /= float64(hi - lo) // the grain's mean gradient
		f.a.Value.EnsureGrad().Data[0] += g
		f.b.Value.EnsureGrad().Data[0] += 1e6 // cross-phase leak
		return g, hi - lo
	}
	// The second phase sees the first phase's update: its gradient is
	// derived from a's post-apply value, so a stale or skipped "first"
	// apply shows up as a wrong b update.
	f.b.Value.EnsureGrad().Data[0] += 10 * f.a.Value.Data.Data[0]
	return 5, 1
}

func (f *fakePhased) ApplyPhase(phase int) {
	f.events = append(f.events, "apply:"+f.phaseName(phase))
	p := f.PhaseParams(phase)[0]
	p.Value.Data.Data[0] -= p.Value.Grad.Data[0]
}

func (f *fakePhased) phaseName(phase int) string { return f.Phases()[phase].Name }

// TestPhaseOrderAndIsolation drives the engine over the fake trainer
// at several worker counts, and the serial one-grain driver
// (models.Trainer) over it once, asserting (a) every rank executes
// the phases of every step in declared order, (b) per-phase reduces
// never mix gradients across phases, and (c) a later phase observes
// the earlier phase's applied update.
func TestPhaseOrderAndIsolation(t *testing.T) {
	// One step: phase "first" reduces mean(1,3) = 2 onto a (a: 0 → -2),
	// then phase "second" reduces 10·a = -20 onto b (b: 0 → 20). Any
	// cross-phase mixing would pull the 1e6 leak into b.
	const wantA, wantB = -2.0, 20.0
	wantEvents := []string{"epoch", "begin:first", "apply:first", "begin:second", "apply:second"}
	check := func(label string, loss float64, replicas []*fakePhased) {
		t.Helper()
		if loss != 5 {
			t.Errorf("%s: epoch loss %v, want the reporting phase's 5", label, loss)
		}
		for r, f := range replicas {
			if got := strings.Join(f.events, ","); got != strings.Join(wantEvents, ",") {
				t.Errorf("%s rank %d: event order %q, want %q", label, r, got, wantEvents)
			}
			if got := f.a.Value.Data.Data[0]; math.Float64bits(got) != math.Float64bits(wantA) {
				t.Errorf("%s rank %d: a = %v, want %v", label, r, got, wantA)
			}
			if got := f.b.Value.Data.Data[0]; math.Float64bits(got) != math.Float64bits(wantB) {
				t.Errorf("%s rank %d: b = %v, want %v", label, r, got, wantB)
			}
		}
	}

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
		if len(replicas) != workers {
			t.Fatalf("workers=%d: %d replicas constructed", workers, len(replicas))
		}
		check(fmt.Sprintf("workers=%d", workers), loss, replicas)
	}

	f := newFakePhased()
	tr, err := models.NewTrainer(f)
	if err != nil {
		t.Fatalf("serial: %v", err)
	}
	loss, err := tr.TrainEpoch()
	if err != nil {
		t.Fatalf("serial: %v", err)
	}
	check("serial", loss, []*fakePhased{f})
}

// TestMalformedTrainersAreRefused: both drivers refuse a trainer whose
// phase list cannot produce a step loss — dist naming the benchmark by
// the id it opens, the serial driver leaving that to the session record
// it fails.
func TestMalformedTrainersAreRefused(t *testing.T) {
	for _, tc := range []struct {
		phases []models.PhaseSpec
		want   string
	}{
		{nil, "declares no phases"},
		{[]models.PhaseSpec{{Name: "first"}, {Name: "second"}}, "declares no reporting phase"},
	} {
		factory := func(int64) models.Benchmark {
			f := newFakePhased()
			f.phases = tc.phases
			return f
		}
		_, err := dist.New(context.Background(), "fake-two-phase", factory, 1, dist.NewLocal(1))
		if want := "dist: fake-two-phase " + tc.want; err == nil || err.Error() != want {
			t.Errorf("dist.New: error %v, want %q", err, want)
		}
		_, err = models.NewTrainer(factory(1))
		if want := "models: benchmark " + tc.want; err == nil || err.Error() != want {
			t.Errorf("models.NewTrainer: error %v, want %q", err, want)
		}
	}
}
