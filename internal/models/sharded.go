package models

import (
	"fmt"

	"aibench/internal/nn"
	"aibench/internal/tensor"
)

// ShardGrains is the fixed number of micro-shards ("grains") every
// sharded run splits each optimizer step's macro-batch into. The grain
// decomposition — not the worker count — defines the numeric result:
// the all-reduce always combines the same per-grain gradients in the
// same order, so any worker count from 1 to ShardGrains is a pure
// scheduling choice and produces bitwise-identical training. A serial
// run (TrainEpoch) takes the same phases at one grain.
const ShardGrains = 8

// Grain computes one micro-shard of a training step on the replica
// that owns it: it runs forward/backward for its contiguous slice of
// the step's macro-batch, accumulating into the replica module's
// (driver-zeroed) gradients, and returns the slice's mean loss and its
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

// PhasedTrainer is implemented by benchmarks whose optimizer step is
// a fixed, ordered list of named phases — one "step" phase for most
// models; a WGAN's critic-then-generator updates, ENAS's
// weights-then-controller steps, truncated-BPTT segments of a
// recurrent model — each with its own grain decomposition, gradient
// reduce over the phase's parameter group, and buffer sync.
// internal/dist trains one identically-seeded replica per worker
// through this interface at ShardGrains grains and executes the phases
// of every step in declared order on every replica: phase p's grains
// are computed, all-reduced, installed, and applied before phase p+1
// begins, so later phases observe the parameter updates of earlier
// ones and replicas stay in bitwise lockstep. A serial run goes
// through the same phases at one grain (TrainEpoch), unless the
// benchmark keeps a serial epoch of its own.
type PhasedTrainer interface {
	Benchmark
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
	// stream and partitions it into grains: ShardGrains for a sharded
	// run, one for a serial one. Every replica calls BeginPhase for
	// every phase of every step — the identical draws keep all
	// replicas' RNG streams in lockstep — and receives the same grain
	// decomposition regardless of the worker count. A phase may reuse a
	// batch drawn by an earlier phase of the same step (the CycleGAN
	// discriminator/generator pair trains on one draw). A benchmark
	// with a serial epoch of its own is only asked for ShardGrains and
	// may split its step its own way.
	BeginPhase(phase, grains int) []Grain
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

// CheckPhases returns t's phase list, or an error when t declares no
// phase or no reporting phase — a step whose loss would be a mean over
// nothing. Both drivers, dist's replica and the serial TrainEpoch,
// refuse such a trainer before its first step.
func CheckPhases(t PhasedTrainer) ([]PhaseSpec, error) {
	phases := t.Phases()
	if len(phases) == 0 {
		return nil, fmt.Errorf("%s declares no phases", t.Name())
	}
	for _, p := range phases {
		if p.Report {
			return phases, nil
		}
	}
	return nil, fmt.Errorf("%s declares no reporting phase", t.Name())
}

// singlePhase is embedded by trainers whose optimizer step is one
// gradient computation: one reporting phase, named "step", reduced over
// the full parameter set.
type singlePhase struct{}

func (singlePhase) Phases() []PhaseSpec         { return []PhaseSpec{{Name: "step", Report: true}} }
func (singlePhase) PhaseParams(int) []*nn.Param { return nil }

// splitGrains splits n samples into at most grains contiguous
// near-equal [lo,hi) ranges and returns grain(lo, hi) for each. The
// split depends only on (n, grains), never on the worker count.
func splitGrains(n, grains int, grain func(lo, hi int) Grain) []Grain {
	if grains > n {
		grains = n
	}
	if grains < 1 {
		grains = 1
	}
	gs := make([]Grain, grains)
	lo := 0
	for g := range gs {
		hi := lo + (n-lo)/(grains-g)
		gs[g] = grain(lo, hi)
		lo = hi
	}
	return gs
}

// batchRows returns rows [lo,hi) of a step's batch: the batch itself
// when the range spans it (every grain of a serial step), else an
// arena copy of the rows.
func batchRows(x *tensor.Tensor, lo, hi int) *tensor.Tensor {
	if lo == 0 && hi == x.Dim(0) {
		return x
	}
	return x.SliceRows(lo, hi)
}

// serialLoop is the one-grain phased driver behind TrainEpoch: the
// trainer plus what dist's replica also reads once per instance — the
// parameters, the checked phase list and the step count.
type serialLoop struct {
	t      PhasedTrainer
	params []*nn.Param
	phases []PhaseSpec
	steps  int
}

func newSerialLoop(t PhasedTrainer) *serialLoop {
	phases, err := CheckPhases(t)
	if err != nil {
		panic("models: " + err.Error())
	}
	return &serialLoop{t: t, params: t.Module().Params(), phases: phases, steps: t.StepsPerEpoch(1)}
}

// epoch runs one epoch and returns its mean step loss.
func (l *serialLoop) epoch() float64 {
	l.t.BeginEpoch()
	total := 0.0
	for s := 0; s < l.steps; s++ {
		total += l.step()
	}
	return total / float64(l.steps)
}

// step runs one optimizer step — every phase in declared order, each
// one grain followed by its update — and returns the mean loss of its
// reporting phases. The arena is reset once, before phase 0 draws its
// batch: later phases reuse tensors earlier ones built.
func (l *serialLoop) step() float64 {
	l.t.Arena().Reset()
	total, reporting := 0.0, 0
	for p, ph := range l.phases {
		gs := l.t.BeginPhase(p, 1)
		if len(gs) != 1 {
			panic(fmt.Sprintf("models: %s phase %q made %d grains of a one-grain step", l.t.Name(), ph.Name, len(gs)))
		}
		for _, pr := range l.params {
			pr.Value.ZeroGrad()
		}
		loss, _ := gs[0]()
		l.t.ApplyPhase(p)
		if ph.Report {
			total += loss
			reporting++
		}
	}
	return total / float64(reporting)
}
