// Package dist implements data-parallel sharded training for the
// scaled benchmarks: one identically-seeded model replica per worker,
// each optimizer step decomposed into one or more ordered phases,
// each phase's macro-batch split into a fixed set of micro-shards
// ("grains"), per-grain gradients combined with a deterministic
// fixed-order all-reduce over the phase's parameter group, and one
// identical update applied by every replica before the next phase
// begins.
//
// Determinism contract (the within-session counterpart of
// internal/parallel's suite-level guarantee): the worker count is a
// pure scheduling knob. The phase list and grain decomposition are
// properties of the benchmark, every replica draws the same batches
// (keeping dataset RNG streams in lockstep), a grain's gradient is
// bitwise independent of which replica computes it, and the reduce
// always combines grains in the same order — so losses, parameters,
// and qualities are bitwise-identical for any worker count from 1
// upward.
//
// Phases run strictly in declared order: a WGAN's critic updates
// complete (reduce + apply) before its generator phase draws a single
// gradient, exactly as the serial alternating scheme demands. Most
// benchmarks declare a single "step" phase and run through the same
// loop.
//
// The engine talks to replicas only through the Backend/Group
// lifecycle, and backends register by name (dist.Register) so plans
// select them like compute kernels: "local" schedules ranks on the
// in-process pool, "process" runs each rank as a child process behind
// the frame protocol, and the ROADMAP's remote runners slot in behind
// the same interface without touching callers. Backend errors — a
// killed child, a diverged replica — surface as per-benchmark errors,
// never as panics that take the suite down.
package dist

import (
	"context"
	"fmt"
	"math"

	"aibench/internal/models"
	"aibench/internal/telemetry"
)

// phaseScratch holds one phase's reusable gather/reduce vectors; the
// step loop is exactly what the scaling sweep and
// BenchmarkShardedSession wall-clock, so the fixed-size slices are
// allocated once per phase and recycled instead of churning the GC
// every step.
type phaseScratch struct {
	order   []*GrainOut
	vecs    [][]float64
	scalars [][]float64
	weights []float64
}

// Engine trains one benchmark data-parallel across a backend's replica
// ranks. It owns the numbers: the canonical grain order, the
// fixed-order all-reduce, and the identical update every rank applies
// — the group underneath only decides where each rank's compute runs.
type Engine struct {
	group   Group
	spec    GroupSpec
	workers int
	closed  bool

	reduced    []float64 // all-reduced gradient of the current phase
	reducedBuf []float64 // all-reduced buffer state
	scratch    []phaseScratch

	// span, when set, is the parent subsequent steps hang their
	// phase/allreduce/bufsync telemetry spans under; nil (the default)
	// disables span creation entirely.
	span *telemetry.Span
}

// SetSpan sets the parent of the spans subsequent steps emit: the
// session body hands the engine each epoch's span so per-step phase
// spans nest under the right epoch. Call between epochs, never mid-step.
func (e *Engine) SetSpan(s *telemetry.Span) { e.span = s }

// New opens a data-parallel engine for the benchmark on the given
// backend: one replica per rank, every replica constructed from the
// same seed (bitwise-identical initialization). benchID names the
// workload in the models registry for out-of-process backends; a nil
// backend defaults to a single-rank Local pool. An error means the
// group could not come up — children that cannot start, a phase
// declaration the replicas refuse. Callers own Close.
func New(ctx context.Context, benchID string, factory models.Factory, seed int64, backend Backend) (*Engine, error) {
	if backend == nil {
		backend = NewLocal(1)
	}
	group, err := backend.Open(ctx, benchID, factory, seed)
	if err != nil {
		return nil, err
	}
	spec := group.Spec()
	e := &Engine{
		group:      group,
		spec:       spec,
		workers:    backend.Workers(),
		reduced:    make([]float64, spec.ParamLen),
		reducedBuf: make([]float64, spec.BufLen),
		scratch:    make([]phaseScratch, len(spec.Phases)),
	}
	return e, nil
}

// Workers returns the backend's replica count.
func (e *Engine) Workers() int { return e.workers }

// Name returns the benchmark's name as the replicas constructed it.
func (e *Engine) Name() string { return e.spec.Name }

// Target returns the benchmark's scaled quality target.
func (e *Engine) Target() float64 { return e.spec.Target }

// MeetsTarget reports whether quality q satisfies the benchmark's
// target given its metric direction.
func (e *Engine) MeetsTarget(q float64) bool { return e.spec.MeetsTarget(q) }

// Phases returns the benchmark's per-step phase list (one entry, named
// "step", for single-phase trainers).
func (e *Engine) Phases() []models.PhaseSpec { return e.spec.Phases }

// Close releases the replica group (child processes, pool slots).
// Idempotent; call before the run's tracer stops so process backends
// can fold their children's counters into the run's.
func (e *Engine) Close() error {
	if e.closed {
		return nil
	}
	e.closed = true
	return e.group.Close()
}

// TrainEpoch runs one data-parallel epoch and returns the mean step
// loss, matching the models.TrainEpoch contract. A step's loss is
// the mean over its reporting phases' reduced losses. An error means
// the group failed (a dead replica, a determinism violation) and the
// engine is no longer usable.
func (e *Engine) TrainEpoch() (float64, error) {
	if err := e.group.BeginEpoch(); err != nil {
		return 0, err
	}
	steps := e.spec.Steps
	if steps <= 0 {
		return 0, nil
	}
	total := 0.0
	for s := 0; s < steps; s++ {
		loss, err := e.step()
		if err != nil {
			return 0, err
		}
		total += loss
	}
	return total / float64(steps), nil
}

// Quality evaluates the benchmark metric. Every replica evaluates —
// evaluation may draw from the dataset RNG stream (negative sampling),
// and identical draws keep all replicas in lockstep — and the engine
// verifies the replicas agree before returning the shared value.
func (e *Engine) Quality() (float64, error) {
	q, err := e.group.Quality()
	if err != nil {
		return 0, err
	}
	for r := 1; r < len(q); r++ {
		if math.Float64bits(q[r]) != math.Float64bits(q[0]) {
			return 0, fmt.Errorf("dist: replica %d quality %v diverged from replica 0 quality %v", r, q[r], q[0])
		}
	}
	return q[0], nil
}

// step executes one data-parallel optimizer step: every phase in
// declared order — compute grains, all-reduce the phase group, apply —
// so later phases observe earlier phases' parameter updates.
func (e *Engine) step() (float64, error) {
	span := e.span.Child("step")
	defer span.End()
	total, reporting := 0.0, 0
	for p := range e.spec.Phases {
		loss, err := e.runPhase(p, span)
		if err != nil {
			return 0, err
		}
		if e.spec.Phases[p].Report {
			total += loss
			reporting++
		}
	}
	return total / float64(reporting), nil
}

// runPhase executes one phase of the current step and returns the
// phase's reduced loss. Telemetry spans hang off parent (nil disables):
// a "phase:<name>" span with compute/allreduce/bufsync/apply children
// — the compute span carrying one replica:<rank> child per rank with
// its grain share, the reduce spans carrying the float counts they
// combined.
func (e *Engine) runPhase(p int, parent *telemetry.Span) (float64, error) {
	var span *telemetry.Span // untraced steps build no span names
	if parent != nil {
		span = parent.Child("phase:" + e.spec.Phases[p].Name)
		defer span.End()
	}
	plen := e.spec.GroupLen[p]

	// Compute: every replica draws the phase's batch (the identical
	// draw keeps dataset RNG streams in lockstep) and runs
	// forward/backward for its round-robin share of grains, recording
	// each grain's phase-group gradient and buffer capture in
	// isolation.
	cspan := span.Child("compute")
	outs, err := e.group.ComputePhase(p)
	if err != nil {
		cspan.End()
		return 0, err
	}
	if cspan != nil {
		for r := range outs {
			rspan := cspan.Child(fmt.Sprintf("replica:%d", r))
			rspan.Add(int64(len(outs[r].Grains)))
			rspan.End()
		}
	}
	cspan.End()

	// Gather grains in canonical order and all-reduce.
	total, got := outs[0].Total, 0
	span.Count(telemetry.CounterGrains, int64(total))
	for r := range outs {
		if outs[r].Total != total {
			return 0, fmt.Errorf("dist: phase %q: replica %d produced %d grains, replica 0 produced %d",
				e.spec.Phases[p].Name, r, outs[r].Total, total)
		}
		got += len(outs[r].Grains)
	}
	if got != total { // checked before total sizes the gather scratch
		return 0, fmt.Errorf("dist: phase %q: replicas reported %d of the phase's %d grains", e.spec.Phases[p].Name, got, total)
	}
	sc := &e.scratch[p]
	if len(sc.order) != total {
		sc.order = make([]*GrainOut, total)
		sc.vecs = make([][]float64, total)
		sc.weights = make([]float64, total)
		sc.scalars = make([][]float64, total)
		for g := range sc.scalars {
			sc.scalars[g] = make([]float64, 1)
		}
	}
	for g := range sc.order {
		sc.order[g] = nil
	}
	for r := range outs {
		for i := range outs[r].Grains {
			gr := &outs[r].Grains[i]
			if gr.Grain < 0 || gr.Grain >= total || sc.order[gr.Grain] != nil {
				return 0, fmt.Errorf("dist: phase %q: replica %d reported grain %d outside its round-robin share",
					e.spec.Phases[p].Name, r, gr.Grain)
			}
			sc.order[gr.Grain] = gr
		}
	}
	samples := 0
	for g, gr := range sc.order {
		if gr == nil {
			return 0, fmt.Errorf("dist: phase %q: no replica produced grain %d", e.spec.Phases[p].Name, g)
		}
		samples += gr.N
	}
	for g, gr := range sc.order {
		sc.vecs[g] = gr.Grad
		sc.scalars[g][0] = gr.Loss
		sc.weights[g] = float64(gr.N) / float64(samples)
	}
	// The gradient reduce and the loss-scalar reduce are two rounds over
	// total grains of plen and 1 floats respectively.
	rspan := span.Child("allreduce")
	Reduce(sc.vecs, sc.weights, e.reduced[:plen])
	var lossOut [1]float64
	Reduce(sc.scalars, sc.weights, lossOut[:])
	rspan.Add(int64(total) * int64(plen+1))
	rspan.End()
	span.Count(telemetry.CounterReduceRounds, 2)
	span.Count(telemetry.CounterReduceFloats, int64(total)*int64(plen+1))
	phaseLoss := lossOut[0]
	if e.spec.BufLen > 0 {
		bspan := span.Child("bufsync")
		for g, gr := range sc.order {
			sc.vecs[g] = gr.Buf
		}
		Reduce(sc.vecs, sc.weights, e.reducedBuf)
		bspan.Add(int64(total) * int64(e.spec.BufLen))
		bspan.End()
		span.Count(telemetry.CounterReduceRounds, 1)
		span.Count(telemetry.CounterReduceFloats, int64(total)*int64(e.spec.BufLen))
	}

	// Apply: install the reduced gradient (and buffer state) on every
	// replica and apply the identical phase update, keeping replicas
	// bitwise in lockstep.
	aspan := span.Child("apply")
	err = e.group.ApplyPhase(p, e.reduced[:plen], e.reducedBuf)
	aspan.End()
	if err != nil {
		return 0, err
	}
	return phaseLoss, nil
}
