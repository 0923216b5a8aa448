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

// convGenerator is the scaled CycleGAN generator: two conv-bn-relu stages
// plus an output convolution with tanh.
type convGenerator struct {
	b1, b2 *convBlock
	out    *nn.Conv2D
}

func newConvGenerator(rng *rand.Rand, c, width int) *convGenerator {
	return &convGenerator{
		b1:  newConvBlock(rng, c, width, 3, 1, 1),
		b2:  newConvBlock(rng, width, width, 3, 1, 1),
		out: nn.NewConv2D(rng, width, c, 3, 1, 1),
	}
}

func (g *convGenerator) Forward(x *autograd.Value) *autograd.Value {
	return autograd.Tanh(g.out.Forward(g.b2.Forward(g.b1.Forward(x))))
}

func (g *convGenerator) Params() []*nn.Param {
	ps := append(g.b1.Params(), g.b2.Params()...)
	return append(ps, g.out.Params()...)
}

func (g *convGenerator) Buffers() []*tensor.Tensor {
	return append(g.b1.Buffers(), g.b2.Buffers()...)
}

// patchDiscriminator is the 70×70-PatchGAN analogue: conv stages ending
// in a per-patch real/fake logit map.
type patchDiscriminator struct {
	b1  *convBlock
	out *nn.Conv2D
}

func newPatchDiscriminator(rng *rand.Rand, c, width int) *patchDiscriminator {
	return &patchDiscriminator{
		b1:  newConvBlock(rng, c, width, 3, 2, 1),
		out: nn.NewConv2D(rng, width, 1, 3, 1, 1),
	}
}

func (d *patchDiscriminator) Forward(x *autograd.Value) *autograd.Value {
	return d.out.Forward(d.b1.Forward(x))
}

func (d *patchDiscriminator) Params() []*nn.Param {
	return append(d.b1.Params(), d.out.Params()...)
}

func (d *patchDiscriminator) Buffers() []*tensor.Tensor { return d.b1.Buffers() }

// ImageToImage is DC-AI-C5: CycleGAN on Cityscapes, scaled to two conv
// generators and two patch discriminators on the synthetic paired
// domains; quality is per-pixel accuracy of the B→A translation against
// the latent scene labels (the Cityscapes evaluation protocol).
type ImageToImage struct {
	stepArena
	gAB, gBA *convGenerator
	dA, dB   *patchDiscriminator
	optG     optim.Optimizer
	optD     optim.Optimizer
	ds       *data.PairedDomains
	batches  int
	batch    int
	// stepA/stepB hold the current step's domain draws: the
	// discriminator phase draws them, the generator phase reuses them
	// (both updates train on one draw).
	stepA, stepB *tensor.Tensor
}

// NewImageToImage constructs the scaled benchmark.
func NewImageToImage(seed int64) *ImageToImage {
	rng := rand.New(rand.NewSource(seed))
	c, width := 3, 6
	b := &ImageToImage{
		gAB: newConvGenerator(rng, c, width),
		gBA: newConvGenerator(rng, c, width),
		dA:  newPatchDiscriminator(rng, c, width),
		dB:  newPatchDiscriminator(rng, c, width),
		ds:  data.NewPairedDomains(seed+1000, c, 8, 8, 4),
	}
	b.optG = optim.NewAdam(Modules(b.gAB, b.gBA), 2e-3)
	b.optD = optim.NewAdam(Modules(b.dA, b.dB), 2e-3)
	b.batches = 6
	b.batch = 6
	b.adopt(b.Module())
	return b
}

// cycleganPhases is the CycleGAN alternating scheme as ordered phases:
// one discriminator update, then one generator update — adversarial
// losses on both directions plus the cycle-consistency L1 term — whose
// loss is the step's reported loss.
var cycleganPhases = []PhaseSpec{
	{Name: "discriminator"}, {Name: "generator", Report: true},
}

// BeginEpoch implements Benchmark (training mode is never toggled;
// batch-norm stays in training statistics).
func (b *ImageToImage) BeginEpoch() {}

// StepsPerEpoch implements Benchmark.
func (b *ImageToImage) StepsPerEpoch(int) int { return b.batches }

// Phases implements Benchmark.
func (b *ImageToImage) Phases() []PhaseSpec { return cycleganPhases }

// PhaseParams implements Benchmark: the discriminator phase
// reduces only the two patch discriminators, the generator phase only
// the two generators — the adversarial term backpropagates through the
// discriminators, and the per-phase group discards those gradients.
func (b *ImageToImage) PhaseParams(phase int) []*nn.Param {
	if phase == 0 {
		return append(b.dA.Params(), b.dB.Params()...)
	}
	return append(b.gAB.Params(), b.gBA.Params()...)
}

// BeginPhase implements Benchmark: the discriminator phase draws
// the step's paired macro-batch, which the generator phase reuses.
func (b *ImageToImage) BeginPhase(phase, _ int) int {
	if phase == 0 {
		b.stepA, b.stepB = b.ds.Pair(b.Arena(), b.batch)
	}
	return b.batch
}

// Grain implements Benchmark: the discriminator phase scores
// real-vs-translated pairs [lo,hi) of the draw; the generator phase
// computes the adversarial plus cycle-consistency objective on the
// same pairs.
func (b *ImageToImage) Grain(phase, lo, hi int) (float64, int) {
	a, bd := b.stepA.SliceRows(lo, hi), b.stepB.SliceRows(lo, hi)
	av, bv := autograd.Const(a), autograd.Const(bd)
	fakeB := b.gAB.Forward(av)
	fakeA := b.gBA.Forward(bv)
	if phase == 0 {
		dRealB := b.dB.Forward(bv)
		dFakeB := b.dB.Forward(autograd.Const(fakeB.Data))
		dRealA := b.dA.Forward(av)
		dFakeA := b.dA.Forward(autograd.Const(fakeA.Data))
		ones := tensor.Ones(dRealB.Shape()...)
		zeros := tensor.New(dRealB.Shape()...)
		return backward(autograd.Add(
			autograd.Add(autograd.BCEWithLogits(dRealB, ones), autograd.BCEWithLogits(dFakeB, zeros)),
			autograd.Add(autograd.BCEWithLogits(dRealA, ones), autograd.BCEWithLogits(dFakeA, zeros))), hi-lo)
	}
	recA := b.gBA.Forward(fakeB)
	recB := b.gAB.Forward(fakeA)
	dOutB := b.dB.Forward(fakeB)
	ones := tensor.Ones(dOutB.Shape()...)
	gAdv := autograd.Add(
		autograd.BCEWithLogits(dOutB, ones),
		autograd.BCEWithLogits(b.dA.Forward(fakeA), ones))
	cycle := autograd.Add(autograd.L1Loss(recA, a), autograd.L1Loss(recB, bd))
	return backward(autograd.Add(gAdv, autograd.Scale(cycle, 10)), hi-lo)
}

// ApplyPhase implements Benchmark.
func (b *ImageToImage) ApplyPhase(phase int) {
	if phase == 0 {
		b.optD.Step()
		return
	}
	b.optG.Step()
}

// Buffers implements Buffered: the batch-norm running statistics of
// both generators and both discriminators (generator forwards inside
// the discriminator phase update generator statistics too).
func (b *ImageToImage) Buffers() []*tensor.Tensor {
	bs := append(b.gAB.Buffers(), b.gBA.Buffers()...)
	bs = append(bs, b.dA.Buffers()...)
	return append(bs, b.dB.Buffers()...)
}

// Quality implements Benchmark: per-pixel accuracy — translate B→A, then
// label each pixel by its nearest class intensity in domain A's style
// and compare with the scene's segmentation (the "FCN-score"-style
// protocol the Cityscapes benchmark uses; paper target 0.52).
func (b *ImageToImage) Quality() float64 {
	b.arena.Reset()
	a, bd := b.ds.Pair(b.Arena(), 8)
	fakeA := b.gBA.Forward(autograd.Const(bd)).Data
	n, c := a.Dim(0), a.Dim(1)
	h, w := a.Dim(2), a.Dim(3)
	classes := b.ds.SegClass

	// Class prototypes in domain A from ground truth.
	protoSum := make([][]float64, classes)
	protoCount := make([]int, classes)
	for i := range protoSum {
		protoSum[i] = make([]float64, c)
	}
	for i := 0; i < n; i++ {
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				cls := b.ds.Class(x)
				for ch := 0; ch < c; ch++ {
					protoSum[cls][ch] += a.At(i, ch, y, x)
				}
				protoCount[cls]++
			}
		}
	}
	for cls := range protoSum {
		if protoCount[cls] > 0 {
			for ch := range protoSum[cls] {
				protoSum[cls][ch] /= float64(protoCount[cls])
			}
		}
	}

	var pred, truth []int
	for i := 0; i < n; i++ {
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				best, bestD := 0, 1e18
				for cls := 0; cls < classes; cls++ {
					d := 0.0
					for ch := 0; ch < c; ch++ {
						diff := fakeA.At(i, ch, y, x) - protoSum[cls][ch]
						d += diff * diff
					}
					if d < bestD {
						best, bestD = cls, d
					}
				}
				pred = append(pred, best)
				truth = append(truth, b.ds.Class(x))
			}
		}
	}
	return metrics.PixelAccuracy(pred, truth)
}

// Module implements Benchmark.
func (b *ImageToImage) Module() nn.Module {
	return Modules(b.gAB, b.gBA, b.dA, b.dB)
}

// imageToImageSpec is the paper-scale architecture: CycleGAN with
// Johnson-style generators (9 residual blocks at 128², the Cityscapes
// training resolution) and two 70×70 PatchGAN discriminators.
func imageToImageSpec() workload.Model {
	var ls []workload.Layer
	gen := func(tag string) {
		var oh, ow int
		ls, oh, ow = workload.ConvBNReLU(ls, tag+".in", 3, 64, 7, 1, 128, 128)
		ls, oh, ow = workload.ConvBNReLU(ls, tag+".d1", 64, 128, 3, 2, oh, ow)
		ls, oh, ow = workload.ConvBNReLU(ls, tag+".d2", 128, 256, 3, 2, oh, ow)
		for i := 0; i < 9; i++ {
			ls, oh, ow = workload.Bottleneck(ls, tag+".res", 256, 256, 256, 1, oh, ow)
		}
		ls = append(ls, workload.Layer{Kind: workload.Upsample, Name: tag + ".u1", Elems: 128 * 64 * 64})
		ls, oh, ow = workload.ConvBNReLU(ls, tag+".uc1", 256, 128, 3, 1, 64, 64)
		ls = append(ls, workload.Layer{Kind: workload.Upsample, Name: tag + ".u2", Elems: 64 * 128 * 128})
		ls, _, _ = workload.ConvBNReLU(ls, tag+".uc2", 128, 64, 3, 1, 128, 128)
		ls = append(ls, workload.Layer{Kind: workload.Conv, Name: tag + ".out", InC: 64, OutC: 3, Kernel: 7, Stride: 1, H: 128, W: 128})
	}
	disc := func(tag string) {
		var oh, ow int
		ls, oh, ow = workload.ConvBNReLU(ls, tag+".c1", 3, 64, 4, 2, 128, 128)
		ls, oh, ow = workload.ConvBNReLU(ls, tag+".c2", 64, 128, 4, 2, oh, ow)
		ls, oh, ow = workload.ConvBNReLU(ls, tag+".c3", 128, 256, 4, 2, oh, ow)
		ls, oh, ow = workload.ConvBNReLU(ls, tag+".c4", 256, 512, 4, 1, oh, ow)
		ls = append(ls, workload.Layer{Kind: workload.Conv, Name: tag + ".out", InC: 512, OutC: 1, Kernel: 4, Stride: 1, H: oh, W: ow})
	}
	gen("gAB")
	gen("gBA")
	disc("dA")
	disc("dB")
	return workload.Model{Name: "DC-AI-C5 Image-to-Image (CycleGAN/Cityscapes)", Layers: ls}
}
