package telemetry

import "sync/atomic"

// The deterministic counter plane: process-global atomics the
// instrumented packages bump through one gated call. The counts are
// pure functions of the work a seeded Plan executes — kernel dispatches
// and their FLOP cost, grains scheduled, floats all-reduced, epochs
// trained, records sunk — never of how that work was scheduled, so the
// snapshot in a Trace is bitwise-reproducible.

// gate is the process-global switch for the counter and pool-stat
// planes; Start flips it on, Stop off. Disabled instrumentation sites
// pay one atomic load.
var gate atomic.Bool

// Enabled reports whether a tracer is currently collecting.
func Enabled() bool { return gate.Load() }

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

var counterVals [numCounters]atomic.Int64

// Count adds n to a scalar counter; a no-op until a tracer starts.
func Count(c Counter, n int64) {
	if !gate.Load() {
		return
	}
	counterVals[c].Add(n)
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

var (
	kernelCalls [numKernelOps]atomic.Int64
	kernelFLOPs [numKernelOps]atomic.Int64
)

// CountKernel records one kernel-op dispatch of the given FLOP cost;
// a no-op until a tracer starts.
func CountKernel(op KernelOp, flops int64) {
	if !gate.Load() {
		return
	}
	kernelCalls[op].Add(1)
	kernelFLOPs[op].Add(flops)
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

// BeginWorkerCapture arms the counter plane inside a dist worker
// process: counters reset and the gate opens, so every kernel dispatch
// from replica construction onward is recorded. The worker has no
// tracer — spans stay parent-side — and ships the capture home with
// EndWorkerCapture when it shuts down.
func BeginWorkerCapture() {
	resetCounters()
	gate.Store(true)
}

// EndWorkerCapture closes the worker's gate and returns everything it
// counted, for the parent to fold into its own plane with Merge.
func EndWorkerCapture() CounterSet {
	gate.Store(false)
	return snapshotCounters()
}

// Merge folds a worker process's counter capture into this process's
// plane. Kernel ops are resolved against the fixed enum order, so a
// merged snapshot is byte-identical to one where the work ran
// in-process; unknown op names (a newer worker binary) are dropped. A
// no-op unless a tracer is collecting.
func Merge(cs CounterSet) {
	if !gate.Load() {
		return
	}
	counterVals[CounterEpochs].Add(cs.Epochs)
	counterVals[CounterGrains].Add(cs.Grains)
	counterVals[CounterReduceRounds].Add(cs.ReduceRounds)
	counterVals[CounterReduceFloats].Add(cs.ReduceFloats)
	counterVals[CounterSinkRecords].Add(cs.SinkRecords)
	for _, oc := range cs.Kernel {
		for i := 0; i < int(numKernelOps); i++ {
			if kernelOpNames[i] == oc.Op {
				kernelCalls[i].Add(oc.Calls)
				kernelFLOPs[i].Add(oc.FLOPs)
				break
			}
		}
	}
}

func resetCounters() {
	for i := range counterVals {
		counterVals[i].Store(0)
	}
	for i := 0; i < int(numKernelOps); i++ {
		kernelCalls[i].Store(0)
		kernelFLOPs[i].Store(0)
	}
}

func snapshotCounters() CounterSet {
	cs := CounterSet{
		Epochs:       counterVals[CounterEpochs].Load(),
		Grains:       counterVals[CounterGrains].Load(),
		ReduceRounds: counterVals[CounterReduceRounds].Load(),
		ReduceFloats: counterVals[CounterReduceFloats].Load(),
		SinkRecords:  counterVals[CounterSinkRecords].Load(),
	}
	for i := 0; i < int(numKernelOps); i++ {
		if c := kernelCalls[i].Load(); c > 0 {
			cs.Kernel = append(cs.Kernel, OpCount{
				Op: kernelOpNames[i], Calls: c, FLOPs: kernelFLOPs[i].Load(),
			})
		}
	}
	return cs
}
