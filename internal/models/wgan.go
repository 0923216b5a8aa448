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

// ImageGeneration is DC-AI-C2: Wasserstein GAN on LSUN-Bedrooms. Both
// generator and critic are 4-layer ReLU MLPs exactly as the paper
// describes ("4-layer RELU-MLP with 512 hidden units"), scaled down; the
// critic is weight-clipped per the WGAN algorithm and the quality metric
// is the estimated Earth-Mover distance.
type ImageGeneration struct {
	stepArena
	gen     *nn.Sequential
	critic  *nn.Sequential
	optG    optim.Optimizer
	optD    optim.Optimizer
	ds      *data.Unconditional
	rng     *rand.Rand
	zDim    int
	imgVol  int
	batches int
	batch   int
	clip    float64
	// The phase's draw: a critic phase's real and detached generated
	// images, the generator phase's latents.
	real, fake, z *tensor.Tensor
}

// NewImageGeneration constructs the scaled benchmark.
func NewImageGeneration(seed int64) *ImageGeneration {
	rng := rand.New(rand.NewSource(seed))
	zDim, hidden := 8, 32
	ds := data.NewUnconditional(seed+1000, 1, 4, 4, 3, 0.08)
	imgVol := 16
	gen := nn.NewSequential(
		nn.NewLinear(rng, zDim, hidden), nn.ReLU{},
		nn.NewLinear(rng, hidden, hidden), nn.ReLU{},
		nn.NewLinear(rng, hidden, hidden), nn.ReLU{},
		nn.NewLinear(rng, hidden, imgVol),
	)
	critic := nn.NewSequential(
		nn.NewLinear(rng, imgVol, hidden), nn.ReLU{},
		nn.NewLinear(rng, hidden, hidden), nn.ReLU{},
		nn.NewLinear(rng, hidden, hidden), nn.ReLU{},
		nn.NewLinear(rng, hidden, 1),
	)
	b := &ImageGeneration{
		gen: gen, critic: critic,
		optG: optim.NewRMSProp(gen, 5e-4, 0.99),
		optD: optim.NewRMSProp(critic, 5e-4, 0.99),
		ds:   ds, rng: rng,
		zDim: zDim, imgVol: imgVol,
		batches: 10, batch: 32, clip: 0.1,
	}
	b.adopt(b.Module())
	return b
}

// sample draws generator outputs for n latent vectors.
func (b *ImageGeneration) sample(n int) *autograd.Value {
	z := tensor.Randn(b.rng, 0, 1, n, b.zDim)
	return b.gen.Forward(autograd.Const(z))
}

// clipCritic clamps every critic weight to [-clip, clip], the WGAN
// Lipschitz constraint. Deterministic, so sharded replicas applying it
// after the identical optimizer step stay in bitwise lockstep.
func (b *ImageGeneration) clipCritic() {
	for _, p := range b.critic.Params() {
		for j, v := range p.Value.Data.Data {
			if v > b.clip {
				p.Value.Data.Data[j] = b.clip
			} else if v < -b.clip {
				p.Value.Data.Data[j] = -b.clip
			}
		}
	}
}

// wganPhases is the WGAN alternating scheme as ordered phases:
// n_critic = 3 critic updates, each followed by weight clipping, then
// one generator update whose loss is the step's reported loss.
var wganPhases = []PhaseSpec{
	{Name: "critic-1"}, {Name: "critic-2"}, {Name: "critic-3"},
	{Name: "generator", Report: true},
}

// BeginEpoch implements Benchmark (no per-epoch state).
func (b *ImageGeneration) BeginEpoch() {}

// StepsPerEpoch implements Benchmark.
func (b *ImageGeneration) StepsPerEpoch(int) int { return b.batches }

// Phases implements Benchmark.
func (b *ImageGeneration) Phases() []PhaseSpec { return wganPhases }

// PhaseParams implements Benchmark: critic phases reduce only the
// critic's gradients, the generator phase only the generator's — the
// generator loss backpropagates through the critic, and the per-phase
// group discards those gradients.
func (b *ImageGeneration) PhaseParams(phase int) []*nn.Param {
	if phase < 3 {
		return b.critic.Params()
	}
	return b.gen.Params()
}

// BeginPhase implements Benchmark: a critic phase draws a real
// macro-batch plus latents, the generator phase draws latents. Every
// replica draws identically, keeping the dataset and latent RNG
// streams in lockstep.
func (b *ImageGeneration) BeginPhase(phase, _ int) int {
	if phase < 3 {
		b.real = b.ds.Real(b.batch).Reshape(b.batch, b.imgVol)
		z := tensor.Randn(b.rng, 0, 1, b.batch, b.zDim)
		// The generator forward is deterministic given the lockstep
		// weights; its output is detached so critic grains never put
		// gradients on the generator.
		b.fake = b.gen.Forward(autograd.Const(z)).Data
		return b.batch
	}
	b.z = tensor.Randn(b.rng, 0, 1, b.batch, b.zDim)
	return b.batch
}

// Grain implements Benchmark: a critic phase scores real-vs-generated
// samples [lo,hi) of the draw; the generator phase maximizes the
// critic's score of samples [lo,hi) generated from its latents.
func (b *ImageGeneration) Grain(phase, lo, hi int) (float64, int) {
	if phase < 3 {
		fReal := b.critic.Forward(autograd.Const(batchRows(b.real, lo, hi)))
		fFake := b.critic.Forward(autograd.Const(batchRows(b.fake, lo, hi)))
		return backward(autograd.Sub(autograd.Mean(fFake), autograd.Mean(fReal)), hi-lo)
	}
	fake := b.gen.Forward(autograd.Const(batchRows(b.z, lo, hi)))
	return backward(autograd.Neg(autograd.Mean(b.critic.Forward(fake))), hi-lo)
}

// ApplyPhase implements Benchmark: critic phases step the critic
// optimizer and re-clip the weights (the WGAN post-step), the
// generator phase steps the generator optimizer.
func (b *ImageGeneration) ApplyPhase(phase int) {
	if phase < 3 {
		b.optD.Step()
		b.clipCritic()
		return
	}
	b.optG.Step()
}

// Quality implements Benchmark: sliced Earth-Mover distance between
// generated and real samples (the paper trains the EM-distance estimate
// to 0.5±0.005; lower is better here).
func (b *ImageGeneration) Quality() float64 {
	b.arena.Reset()
	n := 64
	real := b.ds.Real(n).Reshape(n, b.imgVol)
	fake := b.sample(n)
	toRows := func(t *tensor.Tensor) [][]float64 {
		rows := make([][]float64, n)
		for i := 0; i < n; i++ {
			rows[i] = append([]float64(nil), t.Data[i*b.imgVol:(i+1)*b.imgVol]...)
		}
		return rows
	}
	return metrics.SlicedEMDistance(toRows(fake.Data), toRows(real), 12)
}

// Module implements Benchmark.
func (b *ImageGeneration) Module() nn.Module { return Modules(b.gen, b.critic) }

// imageGenerationSpec is the paper-scale architecture: 4-layer
// 512-hidden MLP generator + critic on 64×64×3 LSUN images, per
// Section 4.1.4.
func imageGenerationSpec() workload.Model {
	vol := 3 * 64 * 64
	ls := workload.MLP(nil, "gen", []int{128, 512, 512, 512, vol}, 1)
	ls = workload.MLP(ls, "critic", []int{vol, 512, 512, 512, 1}, 1)
	return workload.Model{Name: "DC-AI-C2 Image Generation (WGAN/LSUN)", Layers: ls}
}
