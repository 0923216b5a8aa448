package tensor

import (
	"context"
	"fmt"
	"strings"

	"aibench/internal/parallel"
	"aibench/internal/telemetry"
)

// Kernels is the pluggable compute-kernel interface behind the
// package-level MatMul/MatMulT/TMatMul/Conv2D/Conv2DBackward entry
// points: the five ops the models dispatch. A Kernels value is the
// substrate a run computes on, and it travels the way the step arena
// does: the run that owns a benchmark instance records itself — a Run:
// its kernels and its telemetry counters — on the instance's arena
// (Arena.SetRun), every tensor computed from the instance's parameters
// carries that placement, and each entry point dispatches to the
// kernels of its first placed operand. Operands placed nowhere — plain
// heap tensors — dispatch to DefaultKernel. Nothing writes kernel
// state, so any number of runs under different kernels share a process
// without seeing each other.
//
// Implementations receive shape-validated
// operands (the wrappers panic on rank/dimension mismatches before
// dispatching) and must satisfy the determinism contract: for a fixed
// kernel, results are bitwise identical run to run regardless of
// goroutine scheduling, so every output element's accumulation order
// must be fixed by the operand shapes alone.
//
// Two implementations, selected by name: "naive" (the original
// row-parallel loops, kept as the reference oracle) and "blocked" (the
// default), the GEBP engine of kernel_blocked.go — register
// micro-kernels that read a product below the fork threshold in place
// and a larger one from packed panels, with a 2-D row×column-block
// work decomposition over fixed 64×64 blocks.
type Kernels interface {
	// Name is what a plan selects the kernel by ("naive" or "blocked").
	Name() string
	// MatMul computes (m×k) · (k×n) → (m×n).
	MatMul(a, b *Tensor) *Tensor
	// MatMulT computes a · bᵀ for b stored (n×k): (m×k) · (n×k)ᵀ → (m×n).
	MatMulT(a, b *Tensor) *Tensor
	// TMatMul computes aᵀ · b for a stored (k×m): (k×m)ᵀ · (k×n) → (m×n).
	TMatMul(a, b *Tensor) *Tensor
	// Conv2D convolves NCHW x with OIKK weights → N×O×outH×outW.
	Conv2D(x, w *Tensor, p Conv2DParams) *Tensor
	// Conv2DBackward maps Conv2D's output gradient g to the input
	// gradient (x's shape, when needX) and the weight gradient (w's
	// shape, when needW); a gradient not asked for is nil.
	Conv2DBackward(x, w, g *Tensor, p Conv2DParams, needX, needW bool) (dx, dw *Tensor)
}

// DefaultKernel is the kernel a plan that names none runs on, and the
// one unplaced operands dispatch to.
const DefaultKernel = "blocked"

var (
	// builtinBlocked is the GEBP engine the name "blocked" looks up.
	// 64×64 tiles keep the packed A and B slices a tile touches (64·K
	// doubles each) within L2 for the suite's typical K while still
	// cutting a 512×512 product into 64 independent tasks; at 2¹⁷
	// multiply-adds a loop is long enough to pay the pool's ~µs
	// fork-join.
	builtinBlocked = &gebpKernels{blockM: 64, blockN: 64, threshold: 1 << 17}
	// processRun is what unplaced operands dispatch under: the default
	// kernel, no counters.
	processRun = &Run{Kernels: builtinBlocked}
)

// KernelNames lists the kernels a plan can name, sorted.
func KernelNames() []string { return []string{"blocked", "naive"} }

// LookupKernels returns the named kernel as a value to call directly
// or to hand to a run.
func LookupKernels(name string) (Kernels, bool) {
	switch name {
	case "naive":
		return naiveKernels{}, true
	case "blocked":
		return builtinBlocked, true
	}
	return nil, false
}

// ResolveKernels is LookupKernels for a name that arrived from outside
// — a plan or a worker's hello frame: an unknown name is an error that
// lists the kernels there are.
func ResolveKernels(name string) (Kernels, error) {
	k, ok := LookupKernels(name)
	if !ok {
		return nil, fmt.Errorf("tensor: unknown kernel %q (have: %s)", name, strings.Join(KernelNames(), ", "))
	}
	return k, nil
}

// Run is the one run-scoped value: what a run places its benchmark
// instances under. Runner.Run builds it, the context carries it to the
// three places an instance is built, each records it on the instance's
// arena, and from there every kernel entry point finds both halves in
// one look: the kernels its ops compute with and the counters they
// count into (nil: the run is not traced). Read-only once built.
type Run struct {
	Kernels  Kernels
	Counters *telemetry.Counters
}

// dispatch is every kernel entry point's last step: one look for the
// run its operands are placed under, one call of op at the given FLOP
// cost counted into that run's counters (a nil check when it has none),
// and the kernels to make the call on.
func dispatch(op telemetry.KernelOp, flops int64, ts ...*Tensor) Kernels {
	r := RunOf(ts...)
	r.Counters.CountKernel(op, flops)
	return r.Kernels
}

type runKey struct{}

// WithRun returns a context carrying r: the one argument every place
// that builds a benchmark instance for a run already receives.
func WithRun(ctx context.Context, r *Run) context.Context {
	return context.WithValue(ctx, runKey{}, r)
}

// RunFrom returns the run ctx carries, or the process default — the
// default kernel, untraced — when it carries none.
func RunFrom(ctx context.Context) *Run {
	if r, ok := ctx.Value(runKey{}).(*Run); ok {
		return r
	}
	return processRun
}

// borrowGate runs v through parGate from a copy borrowed from l: the
// pool needs a pointer, and a pointer to v would put v on the heap on
// every call. The copy goes back zeroed, so the list keeps no operand
// alive. T must hold no 64-bit atomic, whose zero value the generic
// code could only build in a heap temporary on 32-bit platforms.
func borrowGate[T any, P interface {
	*T
	parallel.Task
}](l *parallel.FreeList[T], v T, threshold, units, flops int) {
	t := P(l.Get())
	*t = v
	parGate(threshold, units, flops, t)
	var zero T
	*t = zero
	l.Put(t)
}

// parGate runs t over [0, units) — across the cores when flops is at
// or above threshold (and there is more than one unit to hand out),
// serially otherwise. Both paths run t over the same index set, so the
// threshold only decides scheduling, never results.
func parGate(threshold, units, flops int, t parallel.Task) {
	if flops >= threshold && units > 1 {
		parallel.ForTask(units, t)
		return
	}
	for i := 0; i < units; i++ {
		t.Run(i)
	}
}
