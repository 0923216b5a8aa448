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
	"aibench/internal/nn"
	"aibench/internal/tensor"
	"aibench/internal/workload"
)

// Benchmark is a scaled, executable component benchmark.
type Benchmark interface {
	// Name returns the component-benchmark task name.
	Name() string
	// TrainEpoch runs one epoch of training, returning the mean loss.
	TrainEpoch() float64
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
	// Arena returns the step arena the instance owns (see stepArena). A
	// driver that runs the optimizer steps itself — internal/dist's
	// replica loop — resets it once per step; TrainEpoch and Quality
	// reset it themselves. Whoever builds an instance for a run records
	// the run on it (Arena.SetRun) before the first step.
	Arena() *tensor.Arena
}

// stepArena is embedded by every benchmark: the one arena all of the
// instance's step-scoped tensors come from. The constructor adopts the
// module's parameters into it, so every activation, interior gradient
// and backward temporary computed from them is arena-backed, and the
// instance resets it at the top of each optimizer step and of each
// Quality batch — on its own goroutine, the only one that ever touches
// it. No step-scoped tensor outlives the step: state a later phase
// reads (the speech model's TBPTT entry state) is built after the
// reset of the step that reads it. Parameters, their gradients,
// optimizer state, running statistics and dataset batches are heap
// tensors and never die. The
// arena holds no memory until the first step, so an instance that is
// only characterized costs nothing.
type stepArena struct{ arena tensor.Arena }

// Arena implements Benchmark.
func (s *stepArena) Arena() *tensor.Arena { return &s.arena }

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
