package nn

import (
	"math/rand"

	"aibench/internal/autograd"
	"aibench/internal/tensor"
)

// Conv2D is a 2-D convolution layer over NCHW inputs.
type Conv2D struct {
	W, B    *Param
	InC     int
	OutC    int
	P       tensor.Conv2DParams
	hasBias bool
}

// NewConv2D constructs a convolution with Kaiming-normal weights and a
// zero bias.
func NewConv2D(rng *rand.Rand, inC, outC, kernel, stride, padding int) *Conv2D {
	fanIn := inC * kernel * kernel
	return &Conv2D{
		W:       &Param{Name: "conv.w", Value: autograd.Var(tensor.KaimingNormal(rng, fanIn, outC, inC, kernel, kernel))},
		B:       &Param{Name: "conv.b", Value: autograd.Var(tensor.New(outC))},
		InC:     inC,
		OutC:    outC,
		P:       tensor.Conv2DParams{Kernel: kernel, Stride: stride, Padding: padding},
		hasBias: true,
	}
}

// NewConv2DNoBias constructs a bias-free convolution (the convention when
// followed by batch normalization, as in ResNet).
func NewConv2DNoBias(rng *rand.Rand, inC, outC, kernel, stride, padding int) *Conv2D {
	c := NewConv2D(rng, inC, outC, kernel, stride, padding)
	c.hasBias = false
	return c
}

// Forward convolves the input.
func (c *Conv2D) Forward(x *autograd.Value) *autograd.Value {
	out := autograd.Conv2D(x, c.W.Value, c.P)
	if c.hasBias {
		out = autograd.AddChannelVector(out, c.B.Value)
	}
	return out
}

// Params returns the kernel (and bias when present).
func (c *Conv2D) Params() []*Param {
	if c.hasBias {
		return []*Param{c.W, c.B}
	}
	return []*Param{c.W}
}

// BatchNorm2D is per-channel batch normalization over NCHW inputs with
// running statistics for evaluation mode.
type BatchNorm2D struct {
	Gamma, Beta     *Param
	RunMean, RunVar *tensor.Tensor
	Momentum, Eps   float64
	Training        bool
	C               int
}

// NewBatchNorm2D constructs a BatchNorm2D in training mode with unit gain.
func NewBatchNorm2D(c int) *BatchNorm2D {
	return &BatchNorm2D{
		Gamma:    &Param{Name: "bn.gamma", Value: autograd.Var(tensor.Ones(c))},
		Beta:     &Param{Name: "bn.beta", Value: autograd.Var(tensor.New(c))},
		RunMean:  tensor.New(c),
		RunVar:   tensor.Ones(c),
		Momentum: 0.1,
		Eps:      1e-5,
		Training: true,
		C:        c,
	}
}

// Forward normalizes with batch statistics in training mode (updating the
// running averages) or with running statistics in evaluation mode.
func (b *BatchNorm2D) Forward(x *autograd.Value) *autograd.Value {
	if b.Training {
		out, mean, variance := autograd.BatchNorm2D(x, b.Gamma.Value, b.Beta.Value, b.Eps)
		for i := range b.RunMean.Data {
			b.RunMean.Data[i] = (1-b.Momentum)*b.RunMean.Data[i] + b.Momentum*mean.Data[i]
			b.RunVar.Data[i] = (1-b.Momentum)*b.RunVar.Data[i] + b.Momentum*variance.Data[i]
		}
		return out
	}
	return autograd.BatchNorm2DInference(x, b.Gamma.Value, b.Beta.Value, b.RunMean, b.RunVar, b.Eps)
}

// Params returns gamma and beta.
func (b *BatchNorm2D) Params() []*Param { return []*Param{b.Gamma, b.Beta} }

// Buffers returns the non-gradient training state (the running mean and
// variance), so data-parallel engines can synchronize it across
// replicas.
func (b *BatchNorm2D) Buffers() []*tensor.Tensor { return []*tensor.Tensor{b.RunMean, b.RunVar} }

// SetTraining flips training mode.
func (b *BatchNorm2D) SetTraining(train bool) { b.Training = train }

// LayerNorm normalizes each row of a 2-D input with learnable gain/bias.
type LayerNorm struct {
	Gamma, Beta *Param
	Eps         float64
	D           int
}

// NewLayerNorm constructs a LayerNorm over the last dimension of size d.
func NewLayerNorm(d int) *LayerNorm {
	return &LayerNorm{
		Gamma: &Param{Name: "ln.gamma", Value: autograd.Var(tensor.Ones(d))},
		Beta:  &Param{Name: "ln.beta", Value: autograd.Var(tensor.New(d))},
		Eps:   1e-5,
		D:     d,
	}
}

// Forward normalizes rows.
func (l *LayerNorm) Forward(x *autograd.Value) *autograd.Value {
	return autograd.LayerNorm(x, l.Gamma.Value, l.Beta.Value, l.Eps)
}

// Params returns gamma and beta.
func (l *LayerNorm) Params() []*Param { return []*Param{l.Gamma, l.Beta} }
