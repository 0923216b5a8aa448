package dist

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"aibench/internal/models"
)

// Backend is the execution substrate the engine schedules replica
// ranks on. The engine owns everything that defines the numbers — the
// fixed grain decomposition, the canonical grain order, the
// fixed-order all-reduce — and a backend only decides *where* each
// rank's compute runs: goroutines in this process (Local), child
// processes exchanging frames over pipes (Process), or the ROADMAP's
// remote runners. Results are therefore bitwise identical across
// backends for any worker count.
//
// Open builds one replica group for a benchmark. The benchID names the
// workload in the models registry so out-of-process backends can
// reconstruct the factory on the far side; in-process backends use the
// factory directly, and every backend names the workload by the id in a
// refusal. The context bounds the group's lifetime: cancelling it tears
// down whatever the backend spawned (child processes die with the run
// instead of leaking).
type Backend interface {
	// Name is the registry key ("local", "process", ...).
	Name() string
	// Workers returns the number of replica ranks a group will have.
	Workers() int
	// Open constructs the replica group: every rank builds the same
	// workload from the same seed (bitwise-identical initialization).
	// Returns the replica's validation error, or the error of a rank
	// that could not start.
	Open(ctx context.Context, benchID string, factory models.Factory, seed int64) (Group, error)
}

// Group is one opened replica set. Every method is a collective over
// all ranks, driven by the engine strictly sequentially (never two
// calls in flight), and every error is fatal to the group: a dead
// child process or a diverged replica surfaces here as a per-benchmark
// error for the session to record, never as a panic that takes the
// suite down. BeginEpoch and ApplyPhase answer nothing the engine
// needs, so a backend may return from them before the ranks have
// finished: each rank still runs them in order, before the next
// collective's work, and a rank that fails in one surfaces at the next
// collective that reads from the ranks (ComputePhase, Quality or
// Close). Close releases whatever the backend spawned and is
// idempotent.
type Group interface {
	// Spec describes the workload as every rank constructed it.
	Spec() GroupSpec
	// BeginEpoch starts an epoch on every rank (the epoch runs
	// Spec().Steps steps).
	BeginEpoch() error
	// ComputePhase runs phase p's grain compute on every rank and
	// returns one PhaseOut per rank. The returned slices are valid
	// until the next collective call.
	ComputePhase(p int) ([]PhaseOut, error)
	// ApplyPhase installs the all-reduced gradient (sliced to the
	// phase group's length) and buffer state on every rank and applies
	// the phase update. The vectors may be reused once it returns.
	ApplyPhase(p int, grad, buf []float64) error
	// Quality evaluates the benchmark metric on every rank (identical
	// draws keep dataset RNG streams in lockstep) and returns the
	// per-rank values for the engine's divergence check.
	Quality() ([]float64, error)
	// Close tears the group down. For process groups it also folds the
	// children's deterministic counters into the parent's telemetry
	// plane, so call it before the tracer stops.
	Close() error
}

// GroupSpec is the workload shape a replica group agreed on: the
// phase list and step count the engine drives and the flattened vector
// lengths the all-reduce operates over. Out-of-process backends ship it
// over the wire from rank 0 and validate the other ranks against it.
// What the benchmark is — its name, target and metric direction — is
// its registry row, which the session reads directly.
type GroupSpec struct {
	// Phases is the benchmark's per-step phase list.
	Phases []models.PhaseSpec `json:"phases"`
	// GroupLen is the flattened length of each phase's reduce group.
	GroupLen []int `json:"group_len"`
	// ParamLen is the flattened length of the full parameter set.
	ParamLen int `json:"param_len"`
	// BufLen is the flattened length of the non-gradient buffer state
	// (0 for benchmarks without batch-norm-style buffers).
	BufLen int `json:"buf_len"`
	// Steps is the benchmark's optimizer steps per epoch, fixed for the
	// instance's lifetime.
	Steps int `json:"steps"`
}

// GrainOut is one grain's contribution, recorded in isolation by the
// rank that computed it and merged by the engine in grain order.
type GrainOut struct {
	Grain int
	N     int
	Loss  float64
	Grad  []float64 // flattened phase-group gradient after this grain alone
	Buf   []float64 // flattened buffer state after this grain alone
}

// PhaseOut is one rank's result of a phase compute: the grain total it
// observed (validated equal across ranks) and its round-robin share.
type PhaseOut struct {
	Total  int
	Grains []GrainOut
}

// validateSpecs checks every rank constructed the same workload shape.
// Replicas are built from one seed, so divergence means the trainer's
// construction is nondeterministic — a per-benchmark error, reported
// against rank 0's declaration.
func validateSpecs(specs []GroupSpec) error {
	s0 := specs[0]
	for r := 1; r < len(specs); r++ {
		s := specs[r]
		if len(s.Phases) != len(s0.Phases) || s.ParamLen != s0.ParamLen || s.BufLen != s0.BufLen || s.Steps != s0.Steps {
			return fmt.Errorf("dist: replica %d constructed a different workload shape than replica 0 (%d phases/%d params/%d buffers/%d steps vs %d/%d/%d/%d)",
				r, len(s.Phases), s.ParamLen, s.BufLen, s.Steps, len(s0.Phases), s0.ParamLen, s0.BufLen, s0.Steps)
		}
		for p := range s0.Phases {
			if s.GroupLen[p] != s0.GroupLen[p] {
				return fmt.Errorf("dist: replica %d phase %q group length %d differs from replica 0's %d",
					r, s0.Phases[p].Name, s.GroupLen[p], s0.GroupLen[p])
			}
		}
	}
	return nil
}

// The backend registry, mirroring tensor.Kernels: backends register a
// builder under a unique name, Plan.Backend selects one by name, and
// NewRunner validates the name at build time so an unknown backend is
// an error before any training starts, never a panic mid-run.
var (
	backendMu sync.Mutex
	backends  = map[string]func(workers int) Backend{}
)

// Register adds a backend builder to the registry; it panics on a
// duplicate name so two backends can never silently shadow each other.
func Register(name string, build func(workers int) Backend) {
	backendMu.Lock()
	defer backendMu.Unlock()
	if _, dup := backends[name]; dup {
		panic(fmt.Sprintf("dist: backend %q registered twice", name))
	}
	backends[name] = build
}

// Names lists the registered backends in sorted order.
func Names() []string {
	backendMu.Lock()
	defer backendMu.Unlock()
	names := make([]string, 0, len(backends))
	for n := range backends {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Known reports whether a backend name is registered.
func Known(name string) bool {
	backendMu.Lock()
	defer backendMu.Unlock()
	_, ok := backends[name]
	return ok
}

// NewBackend builds the named backend with the given worker count
// (minimum 1); unknown names are errors listing what is registered.
func NewBackend(name string, workers int) (Backend, error) {
	backendMu.Lock()
	build, ok := backends[name]
	backendMu.Unlock()
	if !ok {
		return nil, fmt.Errorf("dist: unknown backend %q (have %v)", name, Names())
	}
	return build(workers), nil
}

func init() {
	Register("local", func(workers int) Backend { return NewLocal(workers) })
	Register("process", func(workers int) Backend { return NewProcess(workers) })
}
