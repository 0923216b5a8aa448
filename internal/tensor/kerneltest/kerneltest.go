// Package kerneltest holds the counting Kernels wrapper the
// dispatch-coverage tests of internal/models and internal/dist share.
package kerneltest

import (
	"sync/atomic"

	"aibench/internal/telemetry"
	"aibench/internal/tensor"
)

// Counting forwards every op to the wrapped Kernels and counts the
// calls the way the telemetry kernel-call counter does: one per op,
// except Conv2DBackward, which counts one per gradient asked for (the
// MatMul and the TMatMul it stands for). Place it on a benchmark
// instance's arena and its count is how many of the instance's ops
// dispatched through the arena's kernels; the telemetry counter over
// the same window is how many ran at all.
type Counting struct {
	tensor.Kernels
	Calls atomic.Int64
}

// Count wraps k.
func Count(k tensor.Kernels) *Counting { return &Counting{Kernels: k} }

func (c *Counting) MatMul(a, b *tensor.Tensor) *tensor.Tensor {
	c.Calls.Add(1)
	return c.Kernels.MatMul(a, b)
}

func (c *Counting) MatMulT(a, b *tensor.Tensor) *tensor.Tensor {
	c.Calls.Add(1)
	return c.Kernels.MatMulT(a, b)
}

func (c *Counting) TMatMul(a, b *tensor.Tensor) *tensor.Tensor {
	c.Calls.Add(1)
	return c.Kernels.TMatMul(a, b)
}

func (c *Counting) MatVec(a, v *tensor.Tensor) *tensor.Tensor {
	c.Calls.Add(1)
	return c.Kernels.MatVec(a, v)
}

func (c *Counting) Outer(a, b *tensor.Tensor) *tensor.Tensor {
	c.Calls.Add(1)
	return c.Kernels.Outer(a, b)
}

func (c *Counting) Conv2D(x, w *tensor.Tensor, p tensor.Conv2DParams) *tensor.Tensor {
	c.Calls.Add(1)
	return c.Kernels.Conv2D(x, w, p)
}

func (c *Counting) Conv2DBackward(x, w, g *tensor.Tensor, p tensor.Conv2DParams, needX, needW bool) (dx, dw *tensor.Tensor) {
	if needX {
		c.Calls.Add(1)
	}
	if needW {
		c.Calls.Add(1)
	}
	return c.Kernels.Conv2DBackward(x, w, g, p, needX, needW)
}

// TelemetryCalls runs fn with the process's telemetry counter plane
// capturing and returns how many kernel calls it counted: every call
// fn made through the package-level entry points, whichever kernels it
// dispatched to. The plane is process-global, so callers do not run in
// parallel with each other or with a telemetry run.
func TelemetryCalls(fn func()) int64 {
	telemetry.BeginWorkerCapture()
	fn()
	var n int64
	for _, op := range telemetry.EndWorkerCapture().Kernel {
		n += op.Calls
	}
	return n
}
