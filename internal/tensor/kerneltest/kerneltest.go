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
// instance's arena, beside a telemetry.Counters, and its count is how
// many of the instance's ops dispatched through the arena's kernels —
// the same number the counters read, since both hang off the one Run —
// while the growth of tensor.UnplacedDispatches over the same window is
// how many dispatched anywhere else.
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

// Traced returns how many kernel calls c has counted, over all ops.
func Traced(c *telemetry.Counters) int64 {
	var n int64
	for _, op := range c.Snapshot().Kernel {
		n += op.Calls
	}
	return n
}
