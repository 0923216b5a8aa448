package models

import (
	"errors"
	"fmt"

	"aibench/internal/autograd"
	"aibench/internal/nn"
	"aibench/internal/tensor"
)

// ShardGrains is the fixed number of micro-shards ("grains") every
// sharded run splits each phase's units into (GrainUnits). The grain
// decomposition — not the worker count — defines the numeric result:
// the all-reduce always combines the same per-grain gradients in the
// same order, so any worker count from 1 to ShardGrains is a pure
// scheduling choice and produces bitwise-identical training. A serial
// run (Trainer) takes the same phases at one grain.
const ShardGrains = 8

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
// nothing. Both drivers, dist's replica and the serial Trainer, refuse
// such a benchmark before its first step; the error is worded for the
// caller to name the benchmark in front of it.
func CheckPhases(t Benchmark) ([]PhaseSpec, error) {
	phases := t.Phases()
	if len(phases) == 0 {
		return nil, errors.New("declares no phases")
	}
	for _, p := range phases {
		if p.Report {
			return phases, nil
		}
	}
	return nil, errors.New("declares no reporting phase")
}

// singlePhase is embedded by benchmarks whose optimizer step is one
// gradient computation: one reporting phase, named "step", reduced over
// the full parameter set.
type singlePhase struct{}

func (singlePhase) Phases() []PhaseSpec         { return []PhaseSpec{{Name: "step", Report: true}} }
func (singlePhase) PhaseParams(int) []*nn.Param { return nil }

// GrainUnits is the one split rule of a phase: it returns how many
// grains a draw of n units makes when the driver asks for grains — one
// unit each at most, at least one grain — and grain g's [lo,hi) range
// of the units, for g below that count. Both drivers, Trainer and
// dist's replica, call it, so the split depends only on (n, grains),
// never on the worker count.
func GrainUnits(n, grains, g int) (count, lo, hi int) {
	count = max(1, min(grains, n))
	lo, hi = part(n, count, g)
	return count, lo, hi
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

// backward backpropagates a grain's loss and returns it with the
// grain's sample count.
func backward(loss *autograd.Value, n int) (float64, int) {
	loss.Backward()
	return loss.Item(), n
}

// units holds what unitsGrain reuses across steps: the losses and
// sample counts of a grain's units. A benchmark whose grains span
// several units embeds one; each instance owns its buffers, so
// replicas running concurrently share none.
type units struct {
	losses []*autograd.Value
	counts []int
}

// unitsGrain runs units [lo,hi) of a phase's draw — utterances,
// truncated-BPTT segments, episodes, sentence pairs — as one grain;
// unit(phase, u) builds unit u's loss and returns it with its sample
// count. One unit is backpropagated as it stands. Several are each
// backpropagated scaled by their share of the grain's samples, so the
// grain's loss and gradient are the sample-weighted mean of its units'
// — what the all-reduce makes of the same units as one grain each.
func (us *units) unitsGrain(phase, lo, hi int, unit func(phase, u int) (*autograd.Value, int)) (float64, int) {
	if hi-lo == 1 {
		return backward(unit(phase, lo))
	}
	us.losses, us.counts = us.losses[:0], us.counts[:0]
	total := 0
	for u := lo; u < hi; u++ {
		loss, n := unit(phase, u)
		us.losses, us.counts = append(us.losses, loss), append(us.counts, n)
		total += n
	}
	mean := 0.0
	for i, loss := range us.losses {
		w := float64(us.counts[i]) / float64(total)
		autograd.Scale(loss, w).Backward()
		mean += w * loss.Item()
	}
	return mean, total
}

// Trainer is the serial driver: the benchmark's phased step at one
// grain, plus what dist's replica also reads once per instance — the
// parameters, the checked phase list and the step count. Whoever runs a
// serial session owns one per instance, across its epochs.
type Trainer struct {
	b      Benchmark
	params []*nn.Param
	phases []PhaseSpec
	steps  int
}

// NewTrainer returns b's serial driver, or an error when b's phase list
// cannot produce a step loss (CheckPhases).
func NewTrainer(b Benchmark) (*Trainer, error) {
	phases, err := CheckPhases(b)
	if err != nil {
		return nil, fmt.Errorf("models: benchmark %w", err)
	}
	return &Trainer{b: b, params: b.Module().Params(), phases: phases, steps: b.StepsPerEpoch(1)}, nil
}

// TrainEpoch runs one serial epoch and returns its mean step loss. Per
// step the arena is reset, and per phase the gradients are zeroed, the
// phase's one grain runs and ApplyPhase updates. A step's loss is the
// mean over its reporting phases, as in a sharded step. The error is
// always nil: a serial epoch has no failure of its own.
func (t *Trainer) TrainEpoch() (float64, error) {
	t.b.BeginEpoch()
	total := 0.0
	for s := 0; s < t.steps; s++ {
		total += t.step()
	}
	return total / float64(t.steps), nil
}

// Quality evaluates the benchmark without a backward graph (Evaluate).
func (t *Trainer) Quality() (float64, error) { return Evaluate(t.b, t.params), nil }

// step runs one optimizer step — every phase in declared order, each
// one grain over all the units it drew, followed by its update — and
// returns the mean loss of its reporting phases. The arena is reset
// once, before phase 0 draws its batch: later phases reuse tensors
// earlier ones built.
func (t *Trainer) step() float64 {
	t.b.Arena().Reset()
	total, reporting := 0.0, 0
	for p, ph := range t.phases {
		_, lo, hi := GrainUnits(t.b.BeginPhase(p, 1), 1, 0)
		for _, pr := range t.params {
			pr.Value.ZeroGrad()
		}
		loss, _ := t.b.Grain(p, lo, hi)
		t.b.ApplyPhase(p)
		if ph.Report {
			total += loss
			reporting++
		}
	}
	return total / float64(reporting)
}
