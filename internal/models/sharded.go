package models

import (
	"aibench/internal/nn"
	"aibench/internal/tensor"
)

// shardGrains is the fixed number of micro-shards ("grains") every
// sharded benchmark splits each optimizer step's macro-batch into. The
// grain decomposition — not the worker count — defines the numeric
// result: the all-reduce always combines the same per-grain gradients
// in the same order, so any worker count from 1 to shardGrains is a
// pure scheduling choice and produces bitwise-identical training.
const shardGrains = 8

// Grain computes one micro-shard of a training step on the replica
// that owns it: it runs forward/backward for its contiguous slice of
// the step's macro-batch, accumulating into the replica module's
// (engine-zeroed) gradients, and returns the slice's mean loss and its
// sample count. Grains must not draw from any RNG: every random choice
// of a step happens in BeginPhase, which all replicas execute
// identically, so a grain's gradient is bitwise independent of which
// replica runs it.
type Grain func() (loss float64, n int)

// PhaseSpec names one phase of a multi-phase optimizer step.
type PhaseSpec struct {
	Name string `json:"name"`
	// Report marks the phase's reduced loss as part of the step's
	// reported loss (the mean over reporting phases). At least one
	// phase of every step must report.
	Report bool `json:"report"`
}

// PhasedTrainer is implemented by benchmarks whose optimizer step can
// be computed data-parallel: the step is a fixed, ordered list of named
// phases — one "step" phase for most models; a WGAN's
// critic-then-generator updates, ENAS's weights-then-controller steps,
// truncated-BPTT segments of a recurrent model — each with its own
// grain decomposition, gradient all-reduce over the phase's parameter
// group, and buffer sync. internal/dist trains one identically-seeded
// replica per worker through this interface and executes the phases of
// every step in declared order on every replica: phase p's grains are
// computed, all-reduced, installed, and applied before phase p+1
// begins, so later phases observe the parameter updates of earlier
// ones and replicas stay in bitwise lockstep.
type PhasedTrainer interface {
	Benchmark
	// BeginEpoch advances per-epoch state (training mode, curriculum
	// phase, LR schedules). Every replica calls it once per epoch.
	BeginEpoch()
	// StepsPerEpoch returns the number of optimizer steps in one epoch.
	// The count is fixed for the instance's lifetime: the engine reads
	// it once, when the replica is built.
	StepsPerEpoch() int
	// Phases returns the step's fixed phase list. The list must not
	// depend on training progress: every step of every epoch runs the
	// same phases in the same order.
	Phases() []PhaseSpec
	// BeginPhase draws the phase's batch from the synthetic dataset
	// stream and partitions it into grains. Every replica calls
	// BeginPhase for every phase of every step — the identical draws
	// keep all replicas' RNG streams in lockstep — and receives the
	// same grain decomposition regardless of the worker count. A phase
	// may reuse a batch drawn by an earlier phase of the same step
	// (the CycleGAN discriminator/generator pair trains on one draw).
	BeginPhase(phase int) []Grain
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

// Buffered is implemented by sharded benchmarks carrying non-gradient
// training state (batch-norm running statistics). The engine snapshots
// buffers at each step's start, restores the snapshot before every
// grain so captures are assignment-independent, and broadcasts the
// fixed-order weighted mean of the per-grain captures to all replicas.
type Buffered interface {
	Buffers() []*tensor.Tensor
}

// singlePhase is embedded by trainers whose optimizer step is one
// gradient computation: one reporting phase, named "step", reduced over
// the full parameter set.
type singlePhase struct{}

func (singlePhase) Phases() []PhaseSpec         { return []PhaseSpec{{Name: "step", Report: true}} }
func (singlePhase) PhaseParams(int) []*nn.Param { return nil }

// GrainBounds splits n samples into at most grains contiguous
// near-equal [lo,hi) ranges. The split depends only on (n, grains),
// never on the worker count.
func GrainBounds(n, grains int) [][2]int {
	if grains > n {
		grains = n
	}
	if grains < 1 {
		grains = 1
	}
	out := make([][2]int, 0, grains)
	lo := 0
	for g := 0; g < grains; g++ {
		hi := lo + (n-lo)/(grains-g)
		out = append(out, [2]int{lo, hi})
		lo = hi
	}
	return out
}
