package telemetry

import "sync/atomic"

// The deterministic counter plane: one Counters per traced run, owned
// by its Tracer and bumped by the instrumented packages through the
// spans and tensors the run hands them. The counts are pure functions
// of the work a seeded Plan executes — kernel dispatches and their FLOP
// cost, grains scheduled, floats all-reduced, epochs trained, records
// sunk — never of how that work was scheduled or what else the process
// was running, so the snapshot in a Trace is bitwise-reproducible.

// Counter names one deterministic scalar counter.
type Counter int

// The deterministic scalar counters.
const (
	// CounterEpochs counts training epochs completed (sessions and
	// scaling sweeps).
	CounterEpochs Counter = iota
	// CounterGrains counts micro-shard grains scheduled across the dist
	// engine's replicas.
	CounterGrains
	// CounterReduceRounds counts all-reduce invocations (gradient,
	// loss, and buffer reductions each count one round).
	CounterReduceRounds
	// CounterReduceFloats counts float64 values combined across all
	// reduce rounds (grains × flattened group length).
	CounterReduceFloats
	// CounterSinkRecords counts result records delivered to the run's
	// sink before the trace itself was emitted.
	CounterSinkRecords

	numCounters
)

// Counters is one run's counter plane. The zero value is ready to use;
// a nil *Counters is "tracing off" — every method no-ops, as on a nil
// *Span — and all methods are safe for concurrent use.
type Counters struct {
	scalars [numCounters]atomic.Int64
	calls   [numKernelOps]atomic.Int64
	flops   [numKernelOps]atomic.Int64
}

// Count adds n to a scalar counter.
func (c *Counters) Count(k Counter, n int64) {
	if c != nil {
		c.scalars[k].Add(n)
	}
}

// KernelOp identifies one tensor kernel entry point.
type KernelOp int

// The counted kernel-op entry points (the package-level tensor
// wrappers that dispatch to their operands' Kernels implementation).
const (
	OpMatMul KernelOp = iota
	OpMatMulT
	OpTMatMul
	OpMatVec
	OpOuter
	OpConv2D

	numKernelOps
)

var kernelOpNames = [numKernelOps]string{
	"matmul", "matmult", "tmatmul", "matvec", "outer", "conv2d",
}

// CountKernel records one kernel-op dispatch of the given FLOP cost.
func (c *Counters) CountKernel(op KernelOp, flops int64) {
	if c != nil {
		c.calls[op].Add(1)
		c.flops[op].Add(flops)
	}
}

// OpCount is one kernel op's call and FLOP totals.
type OpCount struct {
	Op    string `json:"op"`
	Calls int64  `json:"calls"`
	FLOPs int64  `json:"flops"`
}

// CounterSet is the deterministic counter snapshot embedded in a
// Trace. Kernel lists only ops that were dispatched, in fixed enum
// order.
type CounterSet struct {
	Epochs       int64     `json:"epochs"`
	Grains       int64     `json:"grains"`
	ReduceRounds int64     `json:"reduce_rounds"`
	ReduceFloats int64     `json:"reduce_floats"`
	SinkRecords  int64     `json:"sink_records"`
	Kernel       []OpCount `json:"kernel,omitempty"`
}

// Merge folds the kernel-op counts of a worker process's snapshot into
// c — the only counters a replica's work touches; the scalar ones are
// counted parent-side, through spans. Ops are resolved against the
// fixed enum order, so a merged snapshot is byte-identical to one where
// the work ran in-process; unknown op names (a newer worker binary) are
// dropped. Merge adds what it is given: counts that crossed a trust
// boundary are validated there first.
func (c *Counters) Merge(ops []OpCount) {
	if c == nil {
		return
	}
	for _, oc := range ops {
		for i, name := range kernelOpNames {
			if name == oc.Op {
				c.calls[i].Add(oc.Calls)
				c.flops[i].Add(oc.FLOPs)
				break
			}
		}
	}
}

// Snapshot reads everything c has counted; the zero CounterSet on a
// nil c.
func (c *Counters) Snapshot() CounterSet {
	if c == nil {
		return CounterSet{}
	}
	cs := CounterSet{
		Epochs:       c.scalars[CounterEpochs].Load(),
		Grains:       c.scalars[CounterGrains].Load(),
		ReduceRounds: c.scalars[CounterReduceRounds].Load(),
		ReduceFloats: c.scalars[CounterReduceFloats].Load(),
		SinkRecords:  c.scalars[CounterSinkRecords].Load(),
	}
	for i, name := range kernelOpNames {
		if n := c.calls[i].Load(); n > 0 {
			cs.Kernel = append(cs.Kernel, OpCount{Op: name, Calls: n, FLOPs: c.flops[i].Load()})
		}
	}
	return cs
}
