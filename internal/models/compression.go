package models

import (
	"math"
	"math/rand"

	"aibench/internal/autograd"
	"aibench/internal/data"
	"aibench/internal/metrics"
	"aibench/internal/nn"
	"aibench/internal/optim"
	"aibench/internal/tensor"
	"aibench/internal/workload"
)

// ImageCompression is DC-AI-C12: the recurrent-neural-network image
// codec (RNN encoder, binarizer, RNN decoder) on ImageNet, scaled to a
// two-iteration residual autoencoder with a tanh soft binarizer on
// synthetic images; quality is MS-SSIM of the reconstruction.
type ImageCompression struct {
	stepArena
	singlePhase
	enc     *nn.Conv2D
	bottle  *nn.Conv2D // produces the (soft) binary code
	expand  *nn.Conv2D
	dec     *nn.Conv2D
	opt     optim.Optimizer
	ds      *data.ImageClassification
	batches int
	iters   int
	h, w    int
	epoch   int
	testX   *tensor.Tensor
	// The step's image draw and its labels, which the codec does not
	// read.
	x      *tensor.Tensor
	labels []int
}

// NewImageCompression constructs the scaled benchmark.
func NewImageCompression(seed int64) *ImageCompression {
	rng := rand.New(rand.NewSource(seed))
	width := 8
	b := &ImageCompression{
		// Plain convolutions (no batch norm): the encoder sees a different
		// residual distribution on every codec iteration, so batch-stat
		// normalization cannot be shared across them.
		enc:     nn.NewConv2D(rng, 1, width, 3, 1, 1),
		bottle:  nn.NewConv2D(rng, width, 6, 3, 2, 1), // 6-channel code at half res
		expand:  nn.NewConv2D(rng, 6, width, 3, 1, 1),
		dec:     nn.NewConv2D(rng, width, 1, 3, 1, 1),
		ds:      data.NewImageClassification(seed+1000, 4, 1, 8, 8, 0.2),
		batches: 8,
		iters:   2,
		h:       8, w: 8,
	}
	b.opt = optim.NewAdam(b.Module(), 2e-3)
	b.testX = b.ds.Batch(nil, make([]int, 32))
	b.labels = make([]int, 8)
	b.adopt(b.Module())
	return b
}

// reconstruct runs the iterative residual codec: each iteration encodes
// the current residual to a (soft) binary code and decodes an update.
func (b *ImageCompression) reconstruct(x *autograd.Value) *autograd.Value {
	shape := x.Shape()
	recon := autograd.Const(tensor.New(shape...))
	residual := x
	for it := 0; it < b.iters; it++ {
		h := autograd.ReLU(b.enc.Forward(residual))
		code := autograd.Tanh(b.bottle.Forward(h)) // soft binarizer in [-1,1]
		up := autograd.UpsampleNearest2D(code, 2)
		update := b.dec.Forward(autograd.ReLU(b.expand.Forward(up)))
		recon = autograd.Add(recon, update)
		residual = autograd.Sub(x, recon)
	}
	return recon
}

// BeginEpoch implements Benchmark: decay the learning rate for stable
// convergence.
func (b *ImageCompression) BeginEpoch() {
	b.epoch++
	b.opt.SetLR(2e-3 * math.Pow(0.993, float64(b.epoch)))
}

// StepsPerEpoch implements Benchmark.
func (b *ImageCompression) StepsPerEpoch(int) int { return b.batches }

// ApplyPhase implements Benchmark.
func (b *ImageCompression) ApplyPhase(int) { b.opt.Step() }

// BeginPhase implements Benchmark: draw the image macro-batch.
func (b *ImageCompression) BeginPhase(int, int) int {
	b.x = b.ds.Batch(b.Arena(), b.labels)
	return b.x.Dim(0)
}

// Grain implements Benchmark: images [lo,hi) of the draw minimize the
// residual energy across codec iterations.
func (b *ImageCompression) Grain(_, lo, hi int) (float64, int) {
	xs := b.x.SliceRows(lo, hi)
	return backward(autograd.MSELoss(b.reconstruct(autograd.Const(xs)), xs), hi-lo)
}

// Quality implements Benchmark: mean MS-SSIM between original and
// reconstruction on held-out images (paper target: 0.99).
func (b *ImageCompression) Quality() float64 {
	b.arena.Reset()
	x := b.testX
	recon := b.reconstruct(autograd.Const(x))
	n := x.Dim(0)
	vol := b.h * b.w
	total := 0.0
	for i := 0; i < n; i++ {
		total += metrics.MSSSIM(x.Data[i*vol:(i+1)*vol], recon.Data.Data[i*vol:(i+1)*vol], b.w)
	}
	return total / float64(n)
}

// Module implements Benchmark.
func (b *ImageCompression) Module() nn.Module {
	return Modules(b.enc, b.bottle, b.expand, b.dec)
}

// imageCompressionSpec is the paper-scale architecture: the
// full-resolution RNN codec — conv-GRU encoder, binarizer, conv-GRU
// decoder, and the entropy-coding network, unrolled 16 iterations on
// 32×32 patches.
func imageCompressionSpec() workload.Model {
	var ls []workload.Layer
	// Stem: 32×32×3 patch to 8×8×64 features.
	var oh, ow int
	ls, oh, ow = workload.ConvBNReLU(ls, "enc_in", 3, 64, 3, 2, 32, 32)
	ls, oh, ow = workload.ConvBNReLU(ls, "enc_down", 64, 64, 3, 2, oh, ow)
	// 16 unrolled codec iterations. Each iteration runs a convolutional
	// GRU encoder, the binarizer, and a convolutional GRU decoder; the
	// weights are shared across iterations (Tied after the first).
	hid := 256
	for it := 0; it < 16; it++ {
		tied := it > 0
		ls = append(ls,
			// Encoder conv-GRU: gates from [input ‖ hidden].
			workload.Layer{Kind: workload.Conv, Name: "enc_gru_gates", InC: 64 + hid, OutC: 3 * hid, Kernel: 3, Stride: 1, H: oh, W: ow, Tied: tied},
			workload.Layer{Kind: workload.Elementwise, Name: "enc_gru_update", Elems: 3 * hid * oh * ow},
			// Binarizer: 1×1 conv to the 32-bit code plane plus sign.
			workload.Layer{Kind: workload.Conv, Name: "binarizer", InC: hid, OutC: 32, Kernel: 1, Stride: 1, H: oh, W: ow, Tied: tied},
			workload.Layer{Kind: workload.Elementwise, Name: "sign", Elems: 32 * oh * ow},
			// Decoder conv-GRU.
			workload.Layer{Kind: workload.Conv, Name: "dec_gru_gates", InC: 32 + hid, OutC: 3 * hid, Kernel: 3, Stride: 1, H: oh, W: ow, Tied: tied},
			workload.Layer{Kind: workload.Elementwise, Name: "dec_gru_update", Elems: 3 * hid * oh * ow},
			// Depth-to-space reconstruction update.
			workload.Layer{Kind: workload.Upsample, Name: "depth2space", Elems: 3 * 32 * 32},
			workload.Layer{Kind: workload.Conv, Name: "dec_out", InC: hid, OutC: 3, Kernel: 1, Stride: 1, H: oh, W: ow, Tied: tied},
			workload.Layer{Kind: workload.Elementwise, Name: "residual", Elems: 3 * 32 * 32},
		)
	}
	// Entropy-coding context model over the codes.
	ls, _, _ = workload.ConvBNReLU(ls, "entropy1", 32, 64, 3, 1, oh, ow)
	ls, _, _ = workload.ConvBNReLU(ls, "entropy2", 64, 64, 3, 1, oh, ow)
	return workload.Model{Name: "DC-AI-C12 Image Compression (RNN codec/ImageNet)", Layers: ls}
}
