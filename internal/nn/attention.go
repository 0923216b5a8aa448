package nn

import (
	"math"
	"math/rand"

	"aibench/internal/autograd"
	"aibench/internal/tensor"
)

// MultiHeadAttention implements scaled dot-product attention with H heads
// over a single sequence represented as a [T, D] matrix. Batch dimension
// is handled by calling Forward per sample, matching how the scaled
// Transformer workloads iterate.
type MultiHeadAttention struct {
	Wq, Wk, Wv, Wo *Param
	D, Heads       int
	// headsOut holds Attend's per-head outputs until they are
	// concatenated: one per head, reused by every call, so one layer
	// attends on one goroutine at a time (a benchmark instance's).
	headsOut []*autograd.Value
}

// NewMultiHeadAttention constructs attention with D model dims split over
// heads (D must be divisible by heads).
func NewMultiHeadAttention(rng *rand.Rand, d, heads int) *MultiHeadAttention {
	if d%heads != 0 {
		panic("nn: attention dim must be divisible by heads")
	}
	mk := func(name string) *Param {
		return &Param{Name: name, Value: autograd.Var(tensor.XavierUniform(rng, d, d, d, d))}
	}
	return &MultiHeadAttention{
		Wq: mk("attn.wq"), Wk: mk("attn.wk"), Wv: mk("attn.wv"), Wo: mk("attn.wo"),
		D: d, Heads: heads, headsOut: make([]*autograd.Value, heads),
	}
}

// Attend computes attention of queries from q over keys/values from kv
// (self-attention when q == kv; cross-attention in the decoder). If
// causal is true, position i may only attend to kv positions <= i.
func (a *MultiHeadAttention) Attend(q, kv *autograd.Value, causal bool) *autograd.Value {
	hd := a.D / a.Heads
	qs := autograd.MatMul(q, a.Wq.Value)
	ks := autograd.MatMul(kv, a.Wk.Value)
	vs := autograd.MatMul(kv, a.Wv.Value)
	scale := 1 / math.Sqrt(float64(hd))
	headsOut := a.headsOut
	for h := 0; h < a.Heads; h++ {
		qh := autograd.SliceCols(qs, h*hd, (h+1)*hd)
		kh := autograd.SliceCols(ks, h*hd, (h+1)*hd)
		vh := autograd.SliceCols(vs, h*hd, (h+1)*hd)
		// Q·Kᵀ through the transpose-free GEMM: one kernel-layer call
		// instead of a materialized Transpose plus MatMul.
		scores := autograd.Scale(autograd.MatMulT(qh, kh), scale)
		if causal {
			scores = applyCausalMask(scores)
		}
		attn := autograd.SoftmaxRows(scores)
		headsOut[h] = autograd.MatMul(attn, vh)
	}
	concat := autograd.ConcatCols(headsOut...)
	clear(headsOut) // the concatenation holds what a gradient needs
	return autograd.MatMul(concat, a.Wo.Value)
}

// Forward is self-attention without masking (encoder usage), satisfying
// the Layer interface.
func (a *MultiHeadAttention) Forward(x *autograd.Value) *autograd.Value {
	return a.Attend(x, x, false)
}

// Params returns the four projection matrices.
func (a *MultiHeadAttention) Params() []*Param {
	return []*Param{a.Wq, a.Wk, a.Wv, a.Wo}
}

// applyCausalMask adds -inf above the diagonal so softmax zeroes future
// positions.
func applyCausalMask(scores *autograd.Value) *autograd.Value {
	t, s := scores.Data.Dim(0), scores.Data.Dim(1)
	mask := tensor.NewLike(scores.Data)
	for i := 0; i < t; i++ {
		for j := i + 1; j < s; j++ {
			mask.Data[i*s+j] = -1e9
		}
	}
	return autograd.Add(scores, autograd.Const(mask))
}

// TransformerBlock is a pre-norm encoder block: attention and a two-layer
// feed-forward network, each with residual connection and layer norm.
type TransformerBlock struct {
	Attn     *MultiHeadAttention
	LN1, LN2 *LayerNorm
	FF1, FF2 *Linear
	Causal   bool
}

// NewTransformerBlock constructs a block with model dim d, ffDim hidden
// units, and the given head count.
func NewTransformerBlock(rng *rand.Rand, d, ffDim, heads int, causal bool) *TransformerBlock {
	return &TransformerBlock{
		Attn:   NewMultiHeadAttention(rng, d, heads),
		LN1:    NewLayerNorm(d),
		LN2:    NewLayerNorm(d),
		FF1:    NewLinear(rng, d, ffDim),
		FF2:    NewLinear(rng, ffDim, d),
		Causal: causal,
	}
}

// Forward applies the block to a [T, D] sequence.
func (b *TransformerBlock) Forward(x *autograd.Value) *autograd.Value {
	h := autograd.Add(x, b.Attn.Attend(b.LN1.Forward(x), b.LN1.Forward(x), b.Causal))
	ff := b.FF2.Forward(autograd.ReLU(b.FF1.Forward(b.LN2.Forward(h))))
	return autograd.Add(h, ff)
}

// Params returns all block parameters.
func (b *TransformerBlock) Params() []*Param {
	var ps []*Param
	ps = append(ps, b.Attn.Params()...)
	ps = append(ps, b.LN1.Params()...)
	ps = append(ps, b.LN2.Params()...)
	ps = append(ps, b.FF1.Params()...)
	ps = append(ps, b.FF2.Params()...)
	return ps
}

// PositionalEncoding returns the sinusoidal position table of shape
// [maxLen, d] from "Attention Is All You Need".
func PositionalEncoding(maxLen, d int) *tensor.Tensor {
	pe := tensor.New(maxLen, d)
	for pos := 0; pos < maxLen; pos++ {
		for i := 0; i < d; i++ {
			angle := float64(pos) / math.Pow(10000, float64(2*(i/2))/float64(d))
			if i%2 == 0 {
				pe.Data[pos*d+i] = math.Sin(angle)
			} else {
				pe.Data[pos*d+i] = math.Cos(angle)
			}
		}
	}
	return pe
}
