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

// SpatialTransformer is DC-AI-C15: a Spatial Transformer Network on
// MNIST — a localization network regresses an affine transform, a grid
// generator and bilinear sampler warp the input, and a classifier labels
// the rectified image. Scaled to synthetic distorted digits.
type SpatialTransformer struct {
	stepArena
	singlePhase
	locConv    *convBlock
	locFC      *nn.Linear
	classifier *miniResNet
	opt        optim.Optimizer
	ds         *data.ImageClassification
	testX      *tensor.Tensor
	testY      []int
	batches    int
	batch      int
	h, w       int
	x          *tensor.Tensor // the step's distorted draw and its labels
	y          []int
}

// NewSpatialTransformer constructs the scaled benchmark.
func NewSpatialTransformer(seed int64) *SpatialTransformer {
	rng := rand.New(rand.NewSource(seed))
	b := &SpatialTransformer{
		locConv:    newConvBlock(rng, 1, 4, 3, 2, 1),
		locFC:      nn.NewLinear(rng, 4*4*4, 6),
		classifier: newMiniResNet(rng, 1, 6, 6),
		ds:         data.NewImageClassification(seed+1000, 6, 1, 8, 8, 0.25),
		batches:    8,
		batch:      16,
		h:          8, w: 8,
	}
	// Bias the localization head toward the identity transform, the
	// standard STN initialization.
	identity := []float64{1, 0, 0, 0, 1, 0}
	copy(b.locFC.B.Value.Data.Data, identity)
	tensor.ScaleInPlace(b.locFC.W.Value.Data, 0.01)
	b.opt = optim.NewAdam(b.Module(), 2e-3)
	b.testY, b.y = make([]int, 72), make([]int, b.batch)
	b.testX = b.ds.DistortedBatch(nil, b.testY, 0.25, 0.2)
	b.adopt(b.Module())
	return b
}

// forward rectifies the input with the learned transform, then
// classifies.
func (b *SpatialTransformer) forward(x *autograd.Value) *autograd.Value {
	loc := b.locConv.Forward(x)
	flat := autograd.Reshape(loc, loc.Data.Dim(0), -1)
	theta := b.locFC.Forward(flat)
	grid := autograd.AffineGrid(theta, b.h, b.w)
	rectified := autograd.GridSample(x, grid, b.h, b.w)
	return b.classifier.Forward(rectified)
}

// BeginEpoch implements Benchmark.
func (b *SpatialTransformer) BeginEpoch() {
	b.locConv.SetTraining(true)
	b.classifier.SetTraining(true)
}

// StepsPerEpoch implements Benchmark.
func (b *SpatialTransformer) StepsPerEpoch(int) int { return b.batches }

// ApplyPhase implements Benchmark.
func (b *SpatialTransformer) ApplyPhase(int) { b.opt.Step() }

// BeginPhase implements Benchmark: draw the distorted macro-batch.
func (b *SpatialTransformer) BeginPhase(int, int) int {
	b.x = b.ds.DistortedBatch(b.Arena(), b.y, 0.25, 0.2)
	return b.batch
}

// Grain implements Benchmark: rectify and classify images [lo,hi) of
// the draw.
func (b *SpatialTransformer) Grain(_, lo, hi int) (float64, int) {
	logits := b.forward(autograd.Const(b.x.SliceRows(lo, hi)))
	return backward(autograd.SoftmaxCrossEntropy(logits, b.y[lo:hi]), hi-lo)
}

// Buffers implements Buffered: batch-norm running statistics of both
// the localization network and the classifier.
func (b *SpatialTransformer) Buffers() []*tensor.Tensor {
	return append(b.locConv.Buffers(), b.classifier.Buffers()...)
}

// Quality implements Benchmark: accuracy on held-out distorted images.
func (b *SpatialTransformer) Quality() float64 {
	b.arena.Reset()
	b.locConv.SetTraining(false)
	b.classifier.SetTraining(false)
	logits := b.forward(autograd.Const(b.testX))
	return metrics.Accuracy(argmaxRows(nil, logits), b.testY)
}

// Module implements Benchmark.
func (b *SpatialTransformer) Module() nn.Module {
	return Modules(b.locConv, b.locFC, b.classifier)
}

// spatialTransformerSpec is the paper-scale architecture: the paper's
// least complex model (≈0.03M parameters) — a small localization CNN,
// the grid generator/sampler, and a compact classifier on 28×28 MNIST.
func spatialTransformerSpec() workload.Model {
	var ls []workload.Layer
	var oh, ow int
	ls, oh, ow = workload.ConvBNReLU(ls, "loc1", 1, 8, 7, 2, 28, 28)
	ls, oh, ow = workload.ConvBNReLU(ls, "loc2", 8, 10, 5, 2, oh, ow)
	ls = append(ls,
		workload.Layer{Kind: workload.Linear, Name: "loc_fc1", In: 10 * oh * ow, Out: 32},
		workload.Layer{Kind: workload.Linear, Name: "loc_fc2", In: 32, Out: 6},
		workload.Layer{Kind: workload.GridSample, Name: "sampler", Elems: 1 * 28 * 28},
	)
	ls, oh, ow = workload.ConvBNReLU(ls, "cls1", 1, 10, 5, 2, 28, 28)
	ls, oh, ow = workload.ConvBNReLU(ls, "cls2", 10, 16, 5, 2, oh, ow)
	ls = append(ls,
		workload.Layer{Kind: workload.Linear, Name: "cls_fc", In: 16 * oh * ow, Out: 10},
		workload.Layer{Kind: workload.Softmax, Name: "softmax", Elems: 10},
	)
	return workload.Model{Name: "DC-AI-C15 Spatial Transformer (STN/MNIST)", Layers: ls}
}
