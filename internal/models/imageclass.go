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
	testX   *tensor.Tensor
	testY   []int
	batches int
	batch   int
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
		testX:   testX,
		testY:   testY,
		batches: 8,
		batch:   16,
	}
	b.adopt(b.Module())
	return b
}

// Name implements Benchmark.
func (b *ImageClassification) Name() string { return "Image Classification" }

// BeginEpoch implements Benchmark.
func (b *ImageClassification) BeginEpoch() { b.net.SetTraining(true) }

// StepsPerEpoch implements Benchmark.
func (b *ImageClassification) StepsPerEpoch(int) int { return b.batches }

// ApplyPhase implements Benchmark.
func (b *ImageClassification) ApplyPhase(int) { b.opt.Step() }

// BeginPhase implements Benchmark: draw the macro-batch and split
// it into per-grain classification sub-batches.
func (b *ImageClassification) BeginPhase(_, grains int) []Grain {
	x, y := b.ds.Batch(b.batch)
	return splitGrains(b.batch, grains, func(lo, hi int) Grain {
		return func() (float64, int) {
			logits := b.net.Forward(autograd.Const(batchRows(x, lo, hi)))
			loss := autograd.SoftmaxCrossEntropy(logits, y[lo:hi])
			loss.Backward()
			return loss.Item(), hi - lo
		}
	})
}

// Buffers implements Buffered: the batch-norm running statistics.
func (b *ImageClassification) Buffers() []*tensor.Tensor { return b.net.Buffers() }

// Quality implements Benchmark: Top-1 accuracy on held-out data.
func (b *ImageClassification) Quality() float64 {
	b.arena.Reset()
	b.net.SetTraining(false)
	logits := b.net.Forward(autograd.Const(b.testX))
	return metrics.Accuracy(argmaxRows(logits), b.testY)
}

// LowerIsBetter implements Benchmark.
func (b *ImageClassification) LowerIsBetter() bool { return false }

// ScaledTarget implements Benchmark (paper target: 74.9% Top-1 at full
// scale; the scaled synthetic task converges well above it).
func (b *ImageClassification) ScaledTarget() float64 { return 0.90 }

// Module implements Benchmark.
func (b *ImageClassification) Module() nn.Module { return b.net }

// Spec implements Benchmark: full ResNet-50 on 224×224 ImageNet crops.
func (b *ImageClassification) Spec() workload.Model {
	m := workload.ResNet50(3, 224, 224, 1000)
	m.Name = "DC-AI-C1 Image Classification (ResNet-50/ImageNet)"
	return m
}
