package tensor

import (
	"fmt"

	"aibench/internal/telemetry"
)

// The package-level GEMM entry points — MatMul, MatMulT and TMatMul
// here, beside Conv2D and Conv2DBackward in conv.go — validate shapes
// and dispatch to the kernels their operands are placed under (dispatch;
// see Run and Kernels in kernels.go). Implementations live in
// kernel_naive.go (the oracle, "naive") and kernel_blocked.go (the GEBP
// engine, "blocked"); a run selects one through Plan.Kernel / the CLI's
// -kernel flag, and operands no run placed use DefaultKernel. Each
// entry point is also the telemetry choke point: one per-op call/FLOP
// count, into the counters of the run it dispatched under, covers every
// kernel implementation — and costs a nil check when that run is
// untraced or the operands are unplaced.

// GEMM shape classes. A (m×k)·(k×n) product is bucketed by which
// dimension dominates: no kernel reads the class (the GEBP engine runs
// every shape under the same blocks); it names the shapes
// bench/probes.go times one GEMM of each.
const (
	// ShapeSquare: no dimension dominates (aspect ratios within 4×).
	ShapeSquare = "square"
	// ShapeSkinny: the inner dimension dominates (k ≥ 4·max(m,n)),
	// e.g. 64×2048×64 — skinny operands, small output.
	ShapeSkinny = "skinny"
	// ShapeFat: the output dominates (max(m,n) ≥ 4·k), e.g.
	// 2048×64×2048 — a fat output computed from a shallow k.
	ShapeFat = "fat"
)

// GEMMShapeClass buckets a (m×k)·(k×n) product into its shape class.
func GEMMShapeClass(m, k, n int) string {
	long := max(m, n)
	switch {
	case k >= 4*long:
		return ShapeSkinny
	case long >= 4*k:
		return ShapeFat
	default:
		return ShapeSquare
	}
}

// MatMul multiplies two 2-D tensors: (m×k) · (k×n) → (m×n).
func MatMul(a, b *Tensor) *Tensor {
	if len(a.shape) != 2 || len(b.shape) != 2 {
		panic(fmt.Sprintf("tensor: MatMul requires 2-D operands, got %v and %v", a.shape, b.shape))
	}
	if a.shape[1] != b.shape[0] {
		panic(fmt.Sprintf("tensor: MatMul inner dims differ: %v vs %v", a.shape, b.shape))
	}
	flops := 2 * int64(a.shape[0]) * int64(a.shape[1]) * int64(b.shape[1])
	return dispatch(telemetry.OpMatMul, flops, a, b).MatMul(a, b)
}

// MatMulT multiplies a by the transpose of b: (m×k) · (n×k)ᵀ → (m×n).
// Used by backward passes to avoid materializing transposes.
func MatMulT(a, b *Tensor) *Tensor {
	if len(a.shape) != 2 || len(b.shape) != 2 {
		panic(fmt.Sprintf("tensor: MatMulT requires 2-D operands, got %v and %v", a.shape, b.shape))
	}
	if a.shape[1] != b.shape[1] {
		panic(fmt.Sprintf("tensor: MatMulT inner dims differ: %v vs %v", a.shape, b.shape))
	}
	flops := 2 * int64(a.shape[0]) * int64(a.shape[1]) * int64(b.shape[0])
	return dispatch(telemetry.OpMatMulT, flops, a, b).MatMulT(a, b)
}

// TMatMul multiplies the transpose of a by b: (k×m)ᵀ · (k×n) → (m×n).
func TMatMul(a, b *Tensor) *Tensor {
	if len(a.shape) != 2 || len(b.shape) != 2 {
		panic(fmt.Sprintf("tensor: TMatMul requires 2-D operands, got %v and %v", a.shape, b.shape))
	}
	if a.shape[0] != b.shape[0] {
		panic(fmt.Sprintf("tensor: TMatMul inner dims differ: %v vs %v", a.shape, b.shape))
	}
	flops := 2 * int64(a.shape[1]) * int64(a.shape[0]) * int64(b.shape[1])
	return dispatch(telemetry.OpTMatMul, flops, a, b).TMatMul(a, b)
}

// Transpose returns the transpose of a 2-D tensor.
func Transpose(a *Tensor) *Tensor {
	if len(a.shape) != 2 {
		panic(fmt.Sprintf("tensor: Transpose requires a 2-D tensor, got %v", a.shape))
	}
	m, n := a.shape[0], a.shape[1]
	out := a.arena.New(n, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			out.Data[j*m+i] = a.Data[i*n+j]
		}
	}
	return out
}
