// Package models implements the seventeen AIBench component-benchmark
// models (Table 3) plus the seven MLPerf training models the paper
// compares against. Each benchmark provides two things:
//
//   - a scaled, executable model trained on the synthetic datasets of
//     internal/data through the full tensor/autograd/nn/optim stack, so
//     every code path (convolutions, recurrence, attention, adversarial
//     training, distillation, architecture search) actually runs; and
//
//   - a paper-scale workload.Model spec used for the analytic
//     FLOPs/parameter characterization (Fig 1a, Fig 2) and for lowering
//     to the GPU simulator (Fig 3, 5, 6, 7).
package models

import (
	"fmt"

	"aibench/internal/nn"
	"aibench/internal/tensor"
	"aibench/internal/workload"
)

// Benchmark is a scaled, executable component benchmark.
type Benchmark interface {
	// Name returns the component-benchmark task name.
	Name() string
	// Quality evaluates the model on held-out data with the benchmark's
	// Table 3 metric.
	Quality() float64
	// LowerIsBetter reports the metric direction (true for WER,
	// perplexity, MSE, EM distance).
	LowerIsBetter() bool
	// ScaledTarget is the quality the scaled model must reach for an
	// entire (scaled) training session to terminate.
	ScaledTarget() float64
	// Module exposes the trainable parameters.
	Module() nn.Module
	// Spec returns the paper-scale architecture.
	Spec() workload.Model
	// Arena returns the step arena the instance owns (see stepArena).
	// Whoever runs the optimizer steps resets it once per step: the
	// phased drivers (TrainEpoch's one-grain loop, internal/dist's
	// replica loop) and a serial epoch a benchmark keeps of its own;
	// Quality resets it itself. Whoever builds an instance for a run
	// records the run on it (Arena.SetRun) before the first step.
	Arena() *tensor.Arena
}

// selfTrained is implemented by a benchmark that keeps a serial epoch
// of its own: the seven that are not PhasedTrainers, and the three
// (DC-AI-C6, DC-AI-C17, MLPerf-RL) whose serial algorithm differs from
// their sharded one.
type selfTrained interface {
	// TrainEpoch runs one epoch of training, returning the mean loss.
	TrainEpoch() float64
}

// TrainEpoch runs one serial epoch of b and returns its mean step
// loss. A benchmark with a serial epoch of its own runs it; every other
// one is a PhasedTrainer and runs its phased step at one grain: per
// step the arena is reset, and per phase the gradients are zeroed, the
// phase's one grain runs and ApplyPhase updates. A step's loss is the
// mean over its reporting phases, as in a sharded step.
func TrainEpoch(b Benchmark) float64 {
	if s, ok := b.(selfTrained); ok {
		return s.TrainEpoch()
	}
	t, ok := b.(PhasedTrainer)
	if !ok {
		panic(fmt.Sprintf("models: %s has no serial epoch: it neither trains itself nor is a PhasedTrainer", b.Name()))
	}
	if h, ok := b.(loopHolder); ok {
		return h.serial(t).epoch()
	}
	return newSerialLoop(t).epoch()
}

// stepArena is embedded by every benchmark: the one arena all of the
// instance's step-scoped tensors come from. The constructor adopts the
// module's parameters into it, so every activation, interior gradient
// and backward temporary computed from them is arena-backed. It is
// reset at the top of each optimizer step, by whichever loop runs the
// step, and of each Quality batch — on the instance's goroutine, the
// only one that ever touches it. No step-scoped tensor outlives the
// step: state a later phase reads (the speech model's TBPTT entry
// state) is built after the reset of the step that reads it.
// Parameters, their gradients, optimizer state, running statistics and
// dataset batches are heap tensors and never die. The arena holds no
// memory until the first step, so an instance that is only
// characterized costs nothing.
type stepArena struct {
	arena tensor.Arena
	// loop is TrainEpoch's one-grain driver, built by the first epoch.
	loop *serialLoop
}

// Arena implements Benchmark.
func (s *stepArena) Arena() *tensor.Arena { return &s.arena }

// loopHolder is implemented, through stepArena, by every benchmark of
// the suite: it keeps the instance's one-grain driver across epochs.
type loopHolder interface {
	serial(PhasedTrainer) *serialLoop
}

// serial returns the instance's one-grain driver over t, the instance
// itself, building it on first use.
func (s *stepArena) serial(t PhasedTrainer) *serialLoop {
	if s.loop == nil {
		s.loop = newSerialLoop(t)
	}
	return s.loop
}

// adopt places every parameter of m in the instance's arena.
func (s *stepArena) adopt(m nn.Module) {
	for _, p := range m.Params() {
		s.arena.Adopt(p.Value.Data)
	}
}

// MeetsTarget reports whether quality q satisfies the benchmark's scaled
// target given its metric direction.
func MeetsTarget(b Benchmark, q float64) bool {
	if b.LowerIsBetter() {
		return q <= b.ScaledTarget()
	}
	return q >= b.ScaledTarget()
}

// Evaluate returns b.Quality() computed without a backward graph: for
// the length of the call the instance's parameters are gradient-free,
// so every node the evaluation builds is a single heap object with
// neither parents nor a backward closure. The forward arithmetic is
// unchanged and Quality never calls Backward, so the result is bitwise
// that of b.Quality(). The parameters require gradients again when
// Evaluate returns, even if Quality panics. Each instance owns its
// parameters, so no other instance sees the change.
func Evaluate(b Benchmark) float64 {
	ps := b.Module().Params()
	for _, p := range ps {
		p.Value.SetRequiresGrad(false)
	}
	defer func() {
		for _, p := range ps {
			p.Value.SetRequiresGrad(true)
		}
	}()
	return b.Quality()
}

// multiModule aggregates several modules' parameters (models with
// separate generator/discriminator or teacher/student parts).
type multiModule struct{ mods []nn.Module }

func (m multiModule) Params() []*nn.Param {
	var ps []*nn.Param
	for _, mod := range m.mods {
		ps = append(ps, mod.Params()...)
	}
	return ps
}

// Modules bundles modules into one nn.Module.
func Modules(mods ...nn.Module) nn.Module { return multiModule{mods: mods} }
