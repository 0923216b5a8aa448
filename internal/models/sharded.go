package models

import (
	"fmt"

	"aibench/internal/autograd"
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

// Buffered is implemented by benchmarks carrying non-gradient
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
// refuse such a benchmark before its first step.
func CheckPhases(t Benchmark) ([]PhaseSpec, error) {
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

// singlePhase is embedded by benchmarks whose optimizer step is one
// gradient computation: one reporting phase, named "step", reduced over
// the full parameter set.
type singlePhase struct{}

func (singlePhase) Phases() []PhaseSpec         { return []PhaseSpec{{Name: "step", Report: true}} }
func (singlePhase) PhaseParams(int) []*nn.Param { return nil }

// splitGrains splits n samples into at most grains contiguous
// near-equal [lo,hi) ranges and returns grain(lo, hi) for each. The
// split depends only on (n, grains), never on the worker count.
func splitGrains(n, grains int, grain func(lo, hi int) Grain) []Grain {
	grains = max(1, min(grains, n))
	gs := make([]Grain, grains)
	for g := range gs {
		gs[g] = grain(part(n, grains, g))
	}
	return gs
}

// part returns range i of n split into parts contiguous near-equal
// [lo,hi) ranges: each takes an equal share of what the earlier ones
// left, rounded down.
func part(n, parts, i int) (lo, hi int) {
	for g := 0; ; g++ {
		hi = lo + (n-lo)/(parts-g)
		if g == i {
			return lo, hi
		}
		lo = hi
	}
}

// unitsGrain runs units [lo,hi) of a step — utterances, truncated-BPTT
// segments, episodes — as one grain; unit(u) builds unit u's loss and
// returns it with its sample count. One unit is backpropagated as it
// stands. Several are each backpropagated scaled by their share of the
// grain's samples, so the grain's loss and gradient are the
// sample-weighted mean of its units' — what the all-reduce makes of the
// same units as one grain each.
func unitsGrain(lo, hi int, unit func(u int) (*autograd.Value, int)) (float64, int) {
	if hi-lo == 1 {
		loss, n := unit(lo)
		loss.Backward()
		return loss.Item(), n
	}
	losses, counts, total := make([]*autograd.Value, hi-lo), make([]int, hi-lo), 0
	for i := range losses {
		losses[i], counts[i] = unit(lo + i)
		total += counts[i]
	}
	mean := 0.0
	for i, loss := range losses {
		w := float64(counts[i]) / float64(total)
		autograd.Scale(loss, w).Backward()
		mean += w * loss.Item()
	}
	return mean, total
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
	t      Benchmark
	params []*nn.Param
	phases []PhaseSpec
	steps  int
}

func newSerialLoop(t Benchmark) *serialLoop {
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
