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

// ImageClassification is DC-AI-C1: ResNet-50 on ImageNet, scaled to a
// mini residual network on synthetic class-conditional images.
type ImageClassification struct {
	stepArena
	singlePhase
	net     *miniResNet
	opt     optim.Optimizer
	ds      *data.ImageClassification
	batches int
	batch   int

	// What every step reuses: the step's labels (its images are drawn
	// into the step's arena).
	x *tensor.Tensor
	y []int
	// What every evaluation reuses: the held-out images' graph leaf,
	// built once over the heap tensor, their labels and the
	// predictions.
	testX *autograd.Value
	testY []int
	pred  []int
}

// NewImageClassification constructs the scaled benchmark.
func NewImageClassification(seed int64) *ImageClassification {
	rng := rand.New(rand.NewSource(seed))
	net := newMiniResNet(rng, 3, 8, 8)
	ds := data.NewImageClassification(seed+1000, 8, 3, 8, 8, 0.4)
	testX, testY := ds.Batch(96)
	b := &ImageClassification{
		net:     net,
		opt:     optim.NewSGD(net, 0.05, 0.9, 1e-4),
		ds:      ds,
		testX:   autograd.Const(testX),
		testY:   testY,
		batches: 8,
		batch:   16,
	}
	b.y = make([]int, b.batch)
	b.adopt(b.Module())
	return b
}

// BeginEpoch implements Benchmark.
func (b *ImageClassification) BeginEpoch() { b.net.SetTraining(true) }

// StepsPerEpoch implements Benchmark.
func (b *ImageClassification) StepsPerEpoch(int) int { return b.batches }

// ApplyPhase implements Benchmark.
func (b *ImageClassification) ApplyPhase(int) { b.opt.Step() }

// BeginPhase implements Benchmark: draw the macro-batch of images.
func (b *ImageClassification) BeginPhase(int, int) int {
	b.x = b.arena.New(b.batch, b.ds.C, b.ds.H, b.ds.W)
	b.ds.BatchInto(b.x, b.y)
	return b.batch
}

// Grain implements Benchmark: classify images [lo,hi) of the draw.
func (b *ImageClassification) Grain(_, lo, hi int) (float64, int) {
	logits := b.net.Forward(autograd.Const(batchRows(b.x, lo, hi)))
	return backward(autograd.SoftmaxCrossEntropy(logits, b.y[lo:hi]), hi-lo)
}

// Buffers implements Buffered: the batch-norm running statistics.
func (b *ImageClassification) Buffers() []*tensor.Tensor { return b.net.Buffers() }

// Quality implements Benchmark: Top-1 accuracy on held-out data.
func (b *ImageClassification) Quality() float64 {
	b.arena.Reset()
	b.net.SetTraining(false)
	b.pred = argmaxRows(b.pred, b.net.Forward(b.testX))
	return metrics.Accuracy(b.pred, b.testY)
}

// Module implements Benchmark.
func (b *ImageClassification) Module() nn.Module { return b.net }

// imageClassificationSpec is the paper-scale architecture: full
// ResNet-50 on 224×224 ImageNet crops.
func imageClassificationSpec() workload.Model {
	m := workload.ResNet50(3, 224, 224, 1000)
	m.Name = "DC-AI-C1 Image Classification (ResNet-50/ImageNet)"
	return m
}
