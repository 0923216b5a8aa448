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

// FaceEmbedding is DC-AI-C7: FaceNet (GoogleNet-style CNN trained with
// triplet loss to embed faces in Euclidean space) on VGGFace2, scaled to
// a mini CNN embedding on synthetic identities; quality is verification
// accuracy with a distance threshold fit on training pairs.
type FaceEmbedding struct {
	stepArena
	singlePhase
	net      *miniResNet
	embed    *nn.Linear
	opt      optim.Optimizer
	ds       *data.Faces
	batches  int
	triplets int
	dim      int
	// The step's triplet draw: anchors, positives, negatives.
	a, p, n *tensor.Tensor
}

// NewFaceEmbedding constructs the scaled benchmark.
func NewFaceEmbedding(seed int64) *FaceEmbedding {
	rng := rand.New(rand.NewSource(seed))
	net := newMiniResNet(rng, 1, 6, 4)
	b := &FaceEmbedding{
		net:      net,
		embed:    nn.NewLinear(rng, 12, 8),
		ds:       data.NewFaces(seed+1000, 8, 1, 8, 8, 0.35),
		batches:  8,
		triplets: 12,
		dim:      8,
	}
	b.opt = optim.NewAdam(b.Module(), 2e-3)
	b.adopt(b.Module())
	return b
}

// embedBatch maps images to embedding vectors.
func (b *FaceEmbedding) embedBatch(x *tensor.Tensor) *autograd.Value {
	return b.embed.Forward(b.net.Features(autograd.Const(x)))
}

// BeginEpoch implements Benchmark.
func (b *FaceEmbedding) BeginEpoch() { b.net.SetTraining(true) }

// StepsPerEpoch implements Benchmark.
func (b *FaceEmbedding) StepsPerEpoch(int) int { return b.batches }

// ApplyPhase implements Benchmark.
func (b *FaceEmbedding) ApplyPhase(int) { b.opt.Step() }

// BeginPhase implements Benchmark: draw the step's triplet
// macro-batch once — all RNG happens here, keeping replicas in
// lockstep.
func (b *FaceEmbedding) BeginPhase(int, int) int {
	b.a, b.p, b.n = b.ds.Triplets(b.triplets)
	return b.triplets
}

// Grain implements Benchmark: train triplets [lo,hi) of the draw —
// anchors, positives and negatives sliced in step — with the FaceNet
// triplet loss.
func (b *FaceEmbedding) Grain(_, lo, hi int) (float64, int) {
	return backward(autograd.TripletLoss(
		b.embedBatch(batchRows(b.a, lo, hi)),
		b.embedBatch(batchRows(b.p, lo, hi)),
		b.embedBatch(batchRows(b.n, lo, hi)), 0.5), hi-lo)
}

// Buffers implements Buffered: the batch-norm running statistics.
func (b *FaceEmbedding) Buffers() []*tensor.Tensor { return b.net.Buffers() }

// Quality implements Benchmark: verification accuracy — fit a distance
// threshold on one pair set, evaluate on another.
func (b *FaceEmbedding) Quality() float64 {
	b.net.SetTraining(false)
	dist := func(x, y *tensor.Tensor) []float64 {
		b.arena.Reset()
		ex := b.embedBatch(x).Data
		ey := b.embedBatch(y).Data
		n := ex.Dim(0)
		out := make([]float64, n)
		for i := 0; i < n; i++ {
			s := 0.0
			for d := 0; d < b.dim; d++ {
				diff := ex.At(i, d) - ey.At(i, d)
				s += diff * diff
			}
			out[i] = s
		}
		return out
	}
	// Fit threshold on a calibration set.
	ca, cb, csame := b.ds.VerificationPairs(32)
	cd := dist(ca, cb)
	bestThresh, bestAcc := 0.0, -1.0
	for _, t := range cd {
		correct := 0
		for i := range cd {
			if (cd[i] <= t) == csame[i] {
				correct++
			}
		}
		if acc := float64(correct) / float64(len(cd)); acc > bestAcc {
			bestAcc, bestThresh = acc, t
		}
	}
	// Evaluate on a fresh set.
	va, vb, vsame := b.ds.VerificationPairs(32)
	vd := dist(va, vb)
	pred := make([]int, len(vd))
	truth := make([]int, len(vd))
	for i := range vd {
		if vd[i] <= bestThresh {
			pred[i] = 1
		}
		if vsame[i] {
			truth[i] = 1
		}
	}
	return metrics.Accuracy(pred, truth)
}

// Module implements Benchmark.
func (b *FaceEmbedding) Module() nn.Module { return Modules(b.net, b.embed) }

// faceEmbeddingSpec is the paper-scale architecture: FaceNet's
// GoogleNet-style Inception backbone (~24M parameters per the paper)
// with a 128-d embedding.
func faceEmbeddingSpec() workload.Model {
	var ls []workload.Layer
	var oh, ow int
	ls, oh, ow = workload.ConvBNReLU(ls, "stem", 3, 64, 7, 2, 224, 224)
	ls = append(ls, workload.Layer{Kind: workload.Pool, Name: "pool1", InC: 64, Kernel: 3, Stride: 2, H: oh, W: ow})
	oh, ow = (oh+1)/2, (ow+1)/2
	in := 64
	for i, wd := range []int{128, 256, 512, 832} {
		ls, oh, ow = workload.ConvBNReLU(ls, "incep"+string(rune('a'+i))+".1", in, wd, 1, 1, oh, ow)
		ls, oh, ow = workload.ConvBNReLU(ls, "incep"+string(rune('a'+i))+".3", wd, wd, 3, 2, oh, ow)
		in = wd
	}
	// Extra 1×1/3×3 mixing at the final resolution to reach FaceNet's depth.
	for i := 0; i < 4; i++ {
		ls, oh, ow = workload.ConvBNReLU(ls, "mix"+string(rune('a'+i)), in, in, 3, 1, oh, ow)
	}
	ls = append(ls,
		workload.Layer{Kind: workload.Pool, Name: "gap", InC: in, Kernel: oh, Stride: oh, H: oh, W: ow},
		workload.Layer{Kind: workload.Linear, Name: "embed", In: in, Out: 128},
		workload.Layer{Kind: workload.Elementwise, Name: "l2norm", Elems: 128},
	)
	return workload.Model{Name: "DC-AI-C7 Face Embedding (FaceNet/VGGFace2)", Layers: ls}
}

// Face3D is DC-AI-C8: RGB-D ResNet-50 for 3D face recognition on the
// Intellifusion dataset, scaled to a 4-channel mini ResNet classifying
// synthetic RGB-D identities.
type Face3D struct {
	stepArena
	singlePhase
	net     *miniResNet
	opt     optim.Optimizer
	ds      *data.Faces
	testX   *tensor.Tensor
	testY   []int
	batches int
	x       *tensor.Tensor // the step's RGB-D draw and its labels
	y       []int
}

// NewFace3D constructs the scaled benchmark.
func NewFace3D(seed int64) *Face3D {
	rng := rand.New(rand.NewSource(seed))
	net := newMiniResNet(rng, 4, 8, 6) // 4 input channels: RGB + depth
	ds := data.NewFaces(seed+1000, 6, 4, 8, 8, 0.4)
	testX, testY := ds.Batch(72)
	b := &Face3D{
		net:     net,
		opt:     optim.NewSGD(net, 0.05, 0.9, 1e-4),
		ds:      ds,
		testX:   testX,
		testY:   testY,
		batches: 8,
	}
	b.adopt(b.Module())
	return b
}

// BeginEpoch implements Benchmark.
func (b *Face3D) BeginEpoch() { b.net.SetTraining(true) }

// StepsPerEpoch implements Benchmark.
func (b *Face3D) StepsPerEpoch(int) int { return b.batches }

// ApplyPhase implements Benchmark.
func (b *Face3D) ApplyPhase(int) { b.opt.Step() }

// BeginPhase implements Benchmark: draw the RGB-D macro-batch.
func (b *Face3D) BeginPhase(int, int) int {
	b.x, b.y = b.ds.Batch(16)
	return len(b.y)
}

// Grain implements Benchmark: identify images [lo,hi) of the draw.
func (b *Face3D) Grain(_, lo, hi int) (float64, int) {
	return backward(autograd.SoftmaxCrossEntropy(b.net.Forward(autograd.Const(batchRows(b.x, lo, hi))), b.y[lo:hi]), hi-lo)
}

// Buffers implements Buffered: the batch-norm running statistics.
func (b *Face3D) Buffers() []*tensor.Tensor { return b.net.Buffers() }

// Quality implements Benchmark: identification accuracy.
func (b *Face3D) Quality() float64 {
	b.arena.Reset()
	b.net.SetTraining(false)
	logits := b.net.Forward(autograd.Const(b.testX))
	return metrics.Accuracy(argmaxRows(nil, logits), b.testY)
}

// Module implements Benchmark.
func (b *Face3D) Module() nn.Module { return b.net }

// face3DSpec is the paper-scale architecture: ResNet-50 with the first
// convolution adjusted for 4-channel RGB-D input, per Section 4.1.10.
func face3DSpec() workload.Model {
	m := workload.ResNet50(4, 112, 112, 253)
	m.Name = "DC-AI-C8 3D Face Recognition (RGB-D ResNet-50)"
	return m
}
