package dist

import (
	"context"

	"aibench/internal/models"
	"aibench/internal/parallel"
	"aibench/internal/tensor"
)

// Local runs every replica rank inside this process on the shared
// fork-join pool. It is the default backend: no isolation, no wire
// cost, and the bitwise oracle the Process backend is diffed against.
type Local struct {
	workers int
}

// NewLocal returns an in-process backend with the given worker count
// (minimum 1).
func NewLocal(workers int) *Local {
	if workers < 1 {
		workers = 1
	}
	return &Local{workers: workers}
}

// Name implements Backend.
func (l *Local) Name() string { return "local" }

// Workers implements Backend.
func (l *Local) Workers() int { return l.workers }

// Open constructs the replica ranks one after another, in rank order,
// and validates the shapes agree. The order carries no numbers: each
// rank builds its own instance from the seed, and internal/data and
// internal/models hold only constant tables — no cache a factory call
// could advance. The context only supplies the run the replicas are
// placed under: nothing outlives the group.
func (l *Local) Open(ctx context.Context, benchID string, factory models.Factory, seed int64) (Group, error) {
	g := &localGroup{
		replicas: make([]*replica, l.workers),
		outs:     make([]PhaseOut, l.workers),
		quals:    make([]float64, l.workers),
	}
	g.body = g.rank
	specs := make([]GroupSpec, l.workers)
	for r := 0; r < l.workers; r++ {
		rep, err := newReplica(benchID, factory, seed, r, l.workers, tensor.RunFrom(ctx))
		if err != nil {
			return nil, err
		}
		g.replicas[r] = rep
		specs[r] = rep.spec
	}
	if err := validateSpecs(specs); err != nil {
		return nil, err
	}
	return g, nil
}

// localGroup drives the replicas through the fork-join pool; every
// collective runs all ranks concurrently with the caller participating,
// exactly as the pre-registry engine did.
type localGroup struct {
	replicas []*replica
	outs     []PhaseOut
	quals    []float64

	// The collective the ranks run next, with its phase and the vectors
	// an apply installs. body is the group's rank method, bound once in
	// Open, so a collective costs the heap nothing.
	op        localOp
	phase     int
	grad, buf []float64
	body      func(r int)
}

// localOp names a collective of the local group.
type localOp int

const (
	opBeginEpoch localOp = iota
	opCompute
	opApply
	opQuality
)

// run executes op on every rank.
func (g *localGroup) run(op localOp) {
	g.op = op
	w := len(g.replicas)
	parallel.For(w, w, g.body)
}

// rank runs the current collective on rank r.
func (g *localGroup) rank(r int) {
	rep := g.replicas[r]
	switch g.op {
	case opBeginEpoch:
		rep.trainer.BeginEpoch()
	case opCompute:
		g.outs[r] = rep.computePhase(g.phase)
	case opApply:
		rep.apply(g.phase, g.grad, g.buf)
	case opQuality:
		g.quals[r] = rep.quality()
	}
}

func (g *localGroup) Spec() GroupSpec { return g.replicas[0].spec }

func (g *localGroup) BeginEpoch() error {
	g.run(opBeginEpoch)
	return nil
}

func (g *localGroup) ComputePhase(p int) ([]PhaseOut, error) {
	g.phase = p
	g.run(opCompute)
	return g.outs, nil
}

func (g *localGroup) ApplyPhase(p int, grad, buf []float64) error {
	g.phase, g.grad, g.buf = p, grad, buf
	g.run(opApply)
	return nil
}

func (g *localGroup) Quality() ([]float64, error) {
	g.run(opQuality)
	return g.quals, nil
}

func (g *localGroup) Close() error { return nil }
