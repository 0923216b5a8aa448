package models

import (
	"math/rand"

	"aibench/internal/autograd"
	"aibench/internal/data"
	"aibench/internal/metrics"
	"aibench/internal/nn"
	"aibench/internal/optim"
	"aibench/internal/tensor"
	"aibench/internal/workload"
)

// VideoPrediction is DC-AI-C11: the motion-focused predictive model
// (CDNA) on the Robot Pushing dataset — "predicts how to transform the
// last image into the next image". The scaled model implements the CDNA
// mechanism directly: a bank of fixed shift kernels applied to the
// current frame, composited by action-conditioned gates the network
// learns; quality is next-frame MSE.
type VideoPrediction struct {
	stepArena
	singlePhase
	gate    *nn.Sequential // action → softmax gates over the shift bank
	shiftW  *tensor.Tensor // constant [K², 1, K, K] shift kernels
	sumW    *tensor.Tensor // constant [1, K², 1, 1] compositing kernel
	opt     optim.Optimizer
	ds      *data.VideoPushing
	batches int
	k       int
	h, w    int
	// The step's transition draw.
	frames, actions, next *tensor.Tensor
}

// NewVideoPrediction constructs the scaled benchmark.
func NewVideoPrediction(seed int64) *VideoPrediction {
	rng := rand.New(rand.NewSource(seed))
	k := 5 // shift range ±2, matching the generator's action range
	nk := k * k
	shiftW := tensor.New(nk, 1, k, k)
	for d := 0; d < nk; d++ {
		shiftW.Set(1, d, 0, d/k, d%k)
	}
	sumW := tensor.Ones(1, nk, 1, 1)
	b := &VideoPrediction{
		gate: nn.NewSequential(
			nn.NewLinear(rng, 2, 24), nn.Tanh{},
			nn.NewLinear(rng, 24, nk),
		),
		shiftW:  shiftW,
		sumW:    sumW,
		ds:      data.NewVideoPushing(seed+1000, 1, 12, 12),
		batches: 8,
		k:       k,
		h:       12, w: 12,
	}
	b.opt = optim.NewAdam(b.gate, 5e-3)
	b.adopt(b.Module())
	// The fixed convolution banks are not parameters, but the first op
	// of a step convolves a dataset batch with one of them: place them
	// too, or that product — the step's largest tensor — stays on the
	// heap.
	b.arena.Adopt(b.shiftW, b.sumW)
	return b
}

// forward predicts the next frame: shift the current frame by every
// kernel in the bank, then composite with gates computed from the
// action.
func (b *VideoPrediction) forward(frames, actions *autograd.Value) *autograd.Value {
	n := frames.Shape()[0]
	nk := b.k * b.k
	p := tensor.Conv2DParams{Kernel: b.k, Stride: 1, Padding: b.k / 2}
	shifted := autograd.Conv2D(frames, autograd.Const(b.shiftW), p) // [N, K², H, W]
	gates := autograd.SoftmaxRows(b.gate.Forward(actions))          // [N, K²]
	gateMap := autograd.UpsampleNearest2D(autograd.Reshape(gates, n, nk, 1, 1), b.h)
	masked := autograd.Mul(shifted, gateMap)
	// Composite: sum the gated shifts back into one channel.
	return autograd.Conv2D(masked, autograd.Const(b.sumW), tensor.Conv2DParams{Kernel: 1, Stride: 1})
}

// BeginEpoch implements Benchmark (no per-epoch state).
func (b *VideoPrediction) BeginEpoch() {}

// StepsPerEpoch implements Benchmark.
func (b *VideoPrediction) StepsPerEpoch(int) int { return b.batches }

// ApplyPhase implements Benchmark.
func (b *VideoPrediction) ApplyPhase(int) { b.opt.Step() }

// BeginPhase implements Benchmark: draw the transition macro-batch.
func (b *VideoPrediction) BeginPhase(int, int) int {
	b.frames, b.actions, b.next = b.ds.Transition(8)
	return b.frames.Dim(0)
}

// Grain implements Benchmark: predict the next frame of transitions
// [lo,hi) of the draw.
func (b *VideoPrediction) Grain(_, lo, hi int) (float64, int) {
	pred := b.forward(autograd.Const(batchRows(b.frames, lo, hi)), autograd.Const(batchRows(b.actions, lo, hi)))
	return backward(autograd.MSELoss(pred, batchRows(b.next, lo, hi)), hi-lo)
}

// Quality implements Benchmark: next-frame MSE on held-out transitions
// (paper target: 72 MSE on 8-bit pixels ≈ 0.0011 in [0,1] units).
func (b *VideoPrediction) Quality() float64 {
	b.arena.Reset()
	frames, actions, next := b.ds.Transition(24)
	pred := b.forward(autograd.Const(frames), autograd.Const(actions))
	return metrics.MSE(pred.Data.Data, next.Data)
}

// Module implements Benchmark.
func (b *VideoPrediction) Module() nn.Module { return b.gate }

// videoPredictionSpec is the paper-scale architecture: the CDNA-style
// motion-focused model — conv LSTM encoder over 64×64 frames with action
// conditioning and transformation-based decoding.
func videoPredictionSpec() workload.Model {
	var ls []workload.Layer
	var oh, ow int
	ls, oh, ow = workload.ConvBNReLU(ls, "enc1", 3, 32, 5, 2, 64, 64)
	ls, oh, ow = workload.ConvBNReLU(ls, "enc2", 32, 64, 5, 2, oh, ow)
	// Convolutional LSTM stack approximated as recurrent layers over the
	// flattened feature map.
	feat := 64 * oh * ow / 16
	ls = append(ls,
		workload.Layer{Kind: workload.LSTM, Name: "convlstm1", SeqLen: 10, Input: feat, Hidden: feat},
		workload.Layer{Kind: workload.LSTM, Name: "convlstm2", SeqLen: 10, Input: feat, Hidden: feat},
		workload.Layer{Kind: workload.Linear, Name: "action_proj", In: 5, Out: feat},
	)
	ls = append(ls, workload.Layer{Kind: workload.Upsample, Name: "up1", Elems: 32 * 32 * 32})
	ls, oh, ow = workload.ConvBNReLU(ls, "dec1", 64, 32, 5, 1, 32, 32)
	ls = append(ls, workload.Layer{Kind: workload.Upsample, Name: "up2", Elems: 16 * 64 * 64})
	ls, _, _ = workload.ConvBNReLU(ls, "dec2", 32, 16, 5, 1, 64, 64)
	ls = append(ls,
		// The CDNA transformation bank and compositing masks.
		workload.Layer{Kind: workload.Conv, Name: "cdna_kernels", InC: 16, OutC: 10, Kernel: 5, Stride: 1, H: 64, W: 64},
		workload.Layer{Kind: workload.Elementwise, Name: "compositing", Elems: 3 * 64 * 64 * 10},
	)
	return workload.Model{Name: "DC-AI-C11 Video Prediction (CDNA/RobotPushing)", Layers: ls}
}
