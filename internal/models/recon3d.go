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

// Recon3D is DC-AI-C13: the convolutional encoder-decoder with
// perspective-transformer supervision on ShapeNet, scaled to a conv
// image encoder that regresses an 8³ voxel occupancy grid from a
// silhouette view; quality is average intersection-over-union.
type Recon3D struct {
	stepArena
	singlePhase
	enc     *convBlock
	enc2    *convBlock
	fc      *nn.Linear
	opt     optim.Optimizer
	ds      *data.Shapes3D
	batches int
	d       int
	// The step's draw: silhouette views and their voxel grids.
	views, voxels *tensor.Tensor
}

// NewRecon3D constructs the scaled benchmark.
func NewRecon3D(seed int64) *Recon3D {
	rng := rand.New(rand.NewSource(seed))
	d := 8
	b := &Recon3D{
		enc:     newConvBlock(rng, 1, 8, 3, 2, 1),
		enc2:    newConvBlock(rng, 8, 16, 3, 2, 1),
		fc:      nn.NewLinear(rng, 16*2*2, d*d*d),
		ds:      data.NewShapes3D(seed+1000, d, 1, 8, 8, 3),
		batches: 8,
		d:       d,
	}
	b.opt = optim.NewAdam(b.Module(), 2e-3)
	b.adopt(b.Module())
	return b
}

// voxelLogits maps a view batch to voxel occupancy logits [N, D³].
func (b *Recon3D) voxelLogits(views *autograd.Value) *autograd.Value {
	h := b.enc2.Forward(b.enc.Forward(views))
	flat := autograd.Reshape(h, h.Data.Dim(0), -1)
	return b.fc.Forward(flat)
}

// BeginEpoch implements Benchmark.
func (b *Recon3D) BeginEpoch() {
	b.enc.SetTraining(true)
	b.enc2.SetTraining(true)
}

// StepsPerEpoch implements Benchmark.
func (b *Recon3D) StepsPerEpoch(int) int { return b.batches }

// ApplyPhase implements Benchmark.
func (b *Recon3D) ApplyPhase(int) { b.opt.Step() }

// BeginPhase implements Benchmark: draw the view/voxel macro-batch.
func (b *Recon3D) BeginPhase(int, int) int {
	b.views, b.voxels = b.ds.Sample(b.Arena(), 8)
	return b.views.Dim(0)
}

// Grain implements Benchmark: train views [lo,hi) of the draw with
// voxel-wise binary cross-entropy.
func (b *Recon3D) Grain(_, lo, hi int) (float64, int) {
	logits := b.voxelLogits(autograd.Const(b.views.SliceRows(lo, hi)))
	target := b.voxels.SliceRows(lo, hi).Reshape(hi-lo, b.d*b.d*b.d)
	return backward(autograd.BCEWithLogits(logits, target), hi-lo)
}

// Buffers implements Buffered: the encoder's batch-norm running
// statistics.
func (b *Recon3D) Buffers() []*tensor.Tensor {
	return append(b.enc.Buffers(), b.enc2.Buffers()...)
}

// Quality implements Benchmark: mean voxel IoU at threshold 0.5 on
// held-out shapes (paper target: 45.83% average IU).
func (b *Recon3D) Quality() float64 {
	b.arena.Reset()
	b.enc.SetTraining(false)
	b.enc2.SetTraining(false)
	views, voxels := b.ds.Sample(b.Arena(), 16)
	logits := b.voxelLogits(autograd.Const(views))
	n := views.Dim(0)
	vol := b.d * b.d * b.d
	total := 0.0
	for i := 0; i < n; i++ {
		pred := make([]float64, vol)
		for j := 0; j < vol; j++ {
			pred[j] = sigmoid(logits.Data.At(i, j))
		}
		total += metrics.VoxelIoU(pred, voxels.Data[i*vol:(i+1)*vol], 0.5)
	}
	return total / float64(n)
}

// Module implements Benchmark.
func (b *Recon3D) Module() nn.Module { return Modules(b.enc, b.enc2, b.fc) }

// recon3DSpec is the paper-scale architecture: the
// perspective-transformer network — image encoder, volume decoder (3-D
// deconvolutions approximated by their GEMM-equivalent volume), and the
// perspective sampling layer. The paper notes this benchmark's FLOPs and
// parameters approximate Object Detection's (both the largest in the
// suite).
func recon3DSpec() workload.Model {
	var ls []workload.Layer
	var oh, ow int
	// Image encoder at 224².
	ls, oh, ow = workload.ConvBNReLU(ls, "enc1", 3, 96, 7, 2, 224, 224)
	ls, oh, ow = workload.ConvBNReLU(ls, "enc2", 96, 192, 5, 2, oh, ow)
	ls, oh, ow = workload.ConvBNReLU(ls, "enc3", 192, 384, 3, 2, oh, ow)
	ls, oh, ow = workload.ConvBNReLU(ls, "enc4", 384, 512, 3, 2, oh, ow)
	ls, oh, ow = workload.ConvBNReLU(ls, "enc5", 512, 512, 3, 1, oh, ow)
	ls, oh, ow = workload.ConvBNReLU(ls, "enc6", 512, 512, 3, 1, oh, ow)
	ls = append(ls,
		workload.Layer{Kind: workload.Pool, Name: "gap", InC: 512, Kernel: oh, Stride: oh, H: oh, W: ow},
		workload.Layer{Kind: workload.Linear, Name: "latent1", In: 512, Out: 1024},
		workload.Layer{Kind: workload.Linear, Name: "latent2", In: 1024, Out: 4096},
	)
	// Volume decoder: 3-D convolutions over the voxel grid, expressed in
	// the separable 2.5-D decomposition (three 3×3 planar convolutions
	// per 3×3×3 volumetric convolution) so the FLOP accounting matches.
	vol3d := func(name string, inC, outC, res int) {
		for axis := 0; axis < 3; axis++ {
			ls = append(ls, workload.Layer{
				Kind: workload.Conv, Name: name,
				InC: inC, OutC: outC, Kernel: 3, Stride: 1, H: res * res, W: res,
			})
			inC = outC
		}
		ls = append(ls, workload.Layer{Kind: workload.Upsample, Name: name + "_up", Elems: outC * res * res * res})
	}
	vol3d("vol8", 512, 512, 8)
	vol3d("vol16", 512, 256, 16)
	vol3d("vol32a", 256, 96, 32)
	vol3d("vol32b", 96, 48, 32)
	ls = append(ls,
		workload.Layer{Kind: workload.Conv, Name: "vol_out", InC: 48, OutC: 1, Kernel: 3, Stride: 1, H: 32 * 32, W: 32},
		// Perspective transformer sampling of the volume.
		workload.Layer{Kind: workload.GridSample, Name: "persp_sampler", Elems: 32 * 32 * 32},
		workload.Layer{Kind: workload.Elementwise, Name: "sigmoid", Elems: 32 * 32 * 32},
	)
	return workload.Model{Name: "DC-AI-C13 3D Object Reconstruction (PTN/ShapeNet)", Layers: ls}
}
