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

// Open constructs the replica ranks serially — replica construction
// order is part of the deterministic contract (each factory call may
// advance shared state such as the dataset cache) — and validates the
// shapes agree. The context only supplies the run the replicas are
// placed under: nothing outlives the group.
func (l *Local) Open(ctx context.Context, _ string, factory models.Factory, seed int64) (Group, error) {
	g := &localGroup{
		replicas: make([]*replica, l.workers),
		outs:     make([]PhaseOut, l.workers),
		quals:    make([]float64, l.workers),
	}
	specs := make([]GroupSpec, l.workers)
	for r := 0; r < l.workers; r++ {
		rep, err := newReplica(factory, seed, r, l.workers, tensor.RunFrom(ctx))
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
}

func (g *localGroup) run(fn func(r int)) {
	w := len(g.replicas)
	parallel.For(w, w, fn)
}

func (g *localGroup) Spec() GroupSpec { return g.replicas[0].spec }

func (g *localGroup) BeginEpoch() error {
	g.run(func(r int) { g.replicas[r].trainer.BeginEpoch() })
	return nil
}

func (g *localGroup) ComputePhase(p int) ([]PhaseOut, error) {
	g.run(func(r int) { g.outs[r] = g.replicas[r].computePhase(p) })
	return g.outs, nil
}

func (g *localGroup) ApplyPhase(p int, grad, buf []float64) error {
	g.run(func(r int) { g.replicas[r].apply(p, grad, buf) })
	return nil
}

func (g *localGroup) Quality() ([]float64, error) {
	g.run(func(r int) { g.quals[r] = g.replicas[r].quality() })
	return g.quals, nil
}

func (g *localGroup) Close() error { return nil }
