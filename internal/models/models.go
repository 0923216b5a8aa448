// Package models implements the seventeen AIBench component-benchmark
// models (Table 3) plus the seven MLPerf training models the paper
// compares against. Each benchmark is one registry row (Entry), which
// provides two things:
//
//   - a scaled, executable model (a Benchmark, built by Entry.Factory)
//     trained on the synthetic datasets of internal/data through the
//     full tensor/autograd/nn/optim stack, so every code path
//     (convolutions, recurrence, attention, adversarial training,
//     distillation, architecture search) actually runs; and
//
//   - a paper-scale workload.Model spec (Entry.Spec) used for the analytic
//     FLOPs/parameter characterization (Fig 1a, Fig 2) and for lowering
//     to the GPU simulator (Fig 3, 5, 6, 7).
package models

import (
	"aibench/internal/autograd"
	"aibench/internal/nn"
	"aibench/internal/tensor"
)

// Benchmark is a scaled, executable component benchmark: its training
// step, and nothing else — what the benchmark is (name, target, metric
// direction, paper-scale spec) is its registry row, Entry. Its
// optimizer step is a fixed, ordered list of named phases — one "step"
// phase for most models; a WGAN's critic-then-generator updates, ENAS's
// weights-then-controller steps, truncated-BPTT segments of a
// recurrent model — each drawing its own units, with its own gradient
// reduce over the phase's parameter group and buffer sync.
// internal/dist trains one identically-seeded replica per worker and
// executes the phases of every step in declared order on every
// replica: each replica draws phase p's units, splits them into at
// most ShardGrains grains (GrainUnits), trains its round-robin share,
// and the grains are all-reduced, installed, and applied before phase
// p+1 begins, so later phases observe the parameter updates of earlier
// ones and replicas stay in bitwise lockstep. A serial run goes
// through the same phases at one grain (Trainer).
type Benchmark interface {
	// Quality evaluates the model on held-out data with the benchmark's
	// Table 3 metric.
	Quality() float64
	// Module exposes the trainable parameters.
	Module() nn.Module
	// Arena returns the step arena the instance owns (see stepArena).
	// Whoever runs the optimizer steps resets it once per step: the
	// phased drivers (Trainer's one-grain loop, internal/dist's
	// replica loop); Quality resets it itself. Whoever builds an
	// instance for a run records the run on it (Arena.SetRun) before the
	// first step.
	Arena() *tensor.Arena

	// BeginEpoch advances per-epoch state (training mode, curriculum
	// phase, LR schedules). Every replica calls it once per epoch.
	BeginEpoch()
	// StepsPerEpoch returns the number of optimizer steps in one epoch
	// of steps split into the given number of grains. The count is
	// fixed for the instance's lifetime: a driver reads it once.
	StepsPerEpoch(grains int) int
	// Phases returns the step's fixed phase list. The list must not
	// depend on training progress: every step of every epoch runs the
	// same phases in the same order.
	Phases() []PhaseSpec
	// BeginPhase draws the phase's batch from the synthetic dataset
	// stream and returns the number of units it holds: samples, pairs,
	// utterances, segments or episodes. grains is the driver's grain
	// count, ShardGrains for a sharded run and one for a serial one;
	// only a benchmark that draws one unit per grain reads it. Every
	// replica calls BeginPhase for every phase of every step — the
	// identical draws keep all replicas' RNG streams in lockstep. A
	// phase may reuse a batch drawn by an earlier phase of the same step
	// (the CycleGAN discriminator/generator pair trains on one draw).
	BeginPhase(phase, grains int) int
	// Grain trains units [lo,hi) of the phase's draw: it runs
	// forward/backward over them, accumulating into the module's
	// (driver-zeroed) gradients, and returns their mean loss and sample
	// count. A grain must not draw from any RNG: every random choice of
	// a step happens in BeginPhase, so a grain's gradient is bitwise
	// independent of which replica runs it. The drivers pick the ranges
	// with GrainUnits.
	Grain(phase, lo, hi int) (loss float64, n int)
	// PhaseParams returns the phase's reduce group: the parameters its
	// grains produce gradients for and its ApplyPhase updates. nil
	// means all of Module().Params(). Gradients on parameters outside
	// the group are neither reduced nor installed, so phases with
	// disjoint groups (generator vs critic) never mix gradients.
	PhaseParams(phase int) []*nn.Param
	// ApplyPhase applies the phase's optimizer update from the
	// gradients currently installed on the phase's parameter group
	// (the engine installs the all-reduced gradients before calling
	// it), plus any deterministic post-step (weight clipping).
	ApplyPhase(phase int)
}

// stepArena is embedded by every benchmark: the one arena all of the
// instance's step-scoped tensors come from. The constructor adopts the
// module's parameters into it, so every activation, interior gradient
// and backward temporary computed from them is arena-backed. It is
// reset at the top of each optimizer step, by whichever loop runs the
// step, and of each Quality batch — on the instance's goroutine, the
// only one that ever touches it. The graph nodes over those tensors
// come from the arena too (autograd's node slab) and die at the same
// reset, and so do the graph leaves over tensors built for the step
// (masks, position tables, ones columns: autograd.Const). No
// step-scoped tensor or node outlives the step: state a later phase
// reads (the speech model's TBPTT entry state) is built after the reset
// of the step that reads it. Parameters, their gradients, optimizer
// state, running statistics and datasets are heap tensors and never
// die. What every step reuses — a draw's buffers, what a phase drew
// for its grains to read, evaluation buffers — lives on the instance,
// built once, so a warmed epoch need make no heap object
// (TestWarmedEpochAllocatesNothing). The arena holds no
// memory until the first step, so an instance built and never trained
// costs nothing.
type stepArena struct{ arena tensor.Arena }

// Arena implements Benchmark.
func (s *stepArena) Arena() *tensor.Arena { return &s.arena }

// adopt places every parameter of m in the instance's arena.
func (s *stepArena) adopt(m nn.Module) {
	for _, p := range m.Params() {
		s.arena.Adopt(p.Value.Data)
	}
}

// Evaluate returns b.Quality() computed without a backward graph: for
// the length of the call the instance's parameters are gradient-free,
// so every node the evaluation builds has neither parents nor a
// backward, and — taken from the instance's arena like the
// tensors it holds — costs the heap nothing once the first evaluation
// has grown the node slab. The forward arithmetic is
// unchanged and Quality never calls Backward, so the result is bitwise
// that of b.Quality(). The parameters require gradients again when
// Evaluate returns, even if Quality panics. Each instance owns its
// parameters, so no other instance sees the change. ps is b's
// parameter list, b.Module().Params(), which its driver already holds.
func Evaluate(b Benchmark, ps []*nn.Param) float64 {
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

// meanLoss is the mean of per-position losses: their sum in order,
// scaled by 1/len.
func meanLoss(losses []*autograd.Value) *autograd.Value {
	sum := losses[0]
	for _, l := range losses[1:] {
		sum = autograd.Add(sum, l)
	}
	return autograd.Scale(sum, 1/float64(len(losses)))
}
