package nn

import (
	"math/rand"

	"aibench/internal/autograd"
	"aibench/internal/tensor"
)

// Linear is a fully connected layer: y = xW + b.
type Linear struct {
	W, B *Param
	In   int
	Out  int
}

// NewLinear constructs a Linear layer with Xavier-uniform weights.
func NewLinear(rng *rand.Rand, in, out int) *Linear {
	return &Linear{
		W:   &Param{Name: "linear.w", Value: autograd.Var(tensor.XavierUniform(rng, in, out, in, out))},
		B:   &Param{Name: "linear.b", Value: autograd.Var(tensor.New(out))},
		In:  in,
		Out: out,
	}
}

// Forward applies the affine map to a 2-D input [N, In].
func (l *Linear) Forward(x *autograd.Value) *autograd.Value {
	return autograd.AddRowVector(autograd.MatMul(x, l.W.Value), l.B.Value)
}

// Params returns the weight and bias.
func (l *Linear) Params() []*Param { return []*Param{l.W, l.B} }

// ReLU is a stateless rectified-linear activation layer.
type ReLU struct{}

// Forward applies max(0, x).
func (ReLU) Forward(x *autograd.Value) *autograd.Value { return autograd.ReLU(x) }

// Params returns nil: ReLU has no parameters.
func (ReLU) Params() []*Param { return nil }

// Tanh is a stateless hyperbolic-tangent activation layer.
type Tanh struct{}

// Forward applies tanh.
func (Tanh) Forward(x *autograd.Value) *autograd.Value { return autograd.Tanh(x) }

// Params returns nil.
func (Tanh) Params() []*Param { return nil }

// Embedding maps integer ids to dense vectors.
type Embedding struct {
	W     *Param
	Vocab int
	Dim   int
}

// NewEmbedding constructs an Embedding with N(0, 0.1) init.
func NewEmbedding(rng *rand.Rand, vocab, dim int) *Embedding {
	return &Embedding{
		W:     &Param{Name: "embedding.w", Value: autograd.Var(tensor.Randn(rng, 0, 0.1, vocab, dim))},
		Vocab: vocab,
		Dim:   dim,
	}
}

// Lookup gathers embedding rows for the given ids.
func (e *Embedding) Lookup(ids []int) *autograd.Value {
	return autograd.Gather(e.W.Value, ids)
}

// Params returns the embedding matrix.
func (e *Embedding) Params() []*Param { return []*Param{e.W} }
