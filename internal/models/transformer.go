package models

import (
	"math/rand"

	"aibench/internal/autograd"
	"aibench/internal/data"
	"aibench/internal/nn"
	"aibench/internal/optim"
	"aibench/internal/tensor"
	"aibench/internal/workload"
)

// decoderBlock is a pre-norm Transformer decoder block: causal
// self-attention, cross-attention over the encoder memory, and a
// feed-forward network, each with a residual connection.
type decoderBlock struct {
	self, cross   *nn.MultiHeadAttention
	ln1, ln2, ln3 *nn.LayerNorm
	ff1, ff2      *nn.Linear
}

func newDecoderBlock(rng *rand.Rand, d, ff, heads int) *decoderBlock {
	return &decoderBlock{
		self:  nn.NewMultiHeadAttention(rng, d, heads),
		cross: nn.NewMultiHeadAttention(rng, d, heads),
		ln1:   nn.NewLayerNorm(d),
		ln2:   nn.NewLayerNorm(d),
		ln3:   nn.NewLayerNorm(d),
		ff1:   nn.NewLinear(rng, d, ff),
		ff2:   nn.NewLinear(rng, ff, d),
	}
}

func (b *decoderBlock) Forward(x, memory *autograd.Value) *autograd.Value {
	n := b.ln1.Forward(x)
	h := autograd.Add(x, b.self.Attend(n, n, true))
	h = autograd.Add(h, b.cross.Attend(b.ln2.Forward(h), memory, false))
	ff := b.ff2.Forward(autograd.ReLU(b.ff1.Forward(b.ln3.Forward(h))))
	return autograd.Add(h, ff)
}

func (b *decoderBlock) Params() []*nn.Param {
	var ps []*nn.Param
	for _, m := range []nn.Module{b.self, b.cross, b.ln1, b.ln2, b.ln3, b.ff1, b.ff2} {
		ps = append(ps, m.Params()...)
	}
	return ps
}

// TextToText is DC-AI-C3: Transformer translation on WMT En-De, scaled
// to a one-encoder/one-decoder-block model on the synthetic parallel
// corpus.
type TextToText struct {
	stepArena
	singlePhase
	emb     *nn.Embedding
	enc     *nn.TransformerBlock
	dec     *decoderBlock
	proj    *nn.Linear
	pos     *tensor.Tensor
	opt     optim.Optimizer
	ds      *data.Translation
	evalSet [][2][]int
	vocab   int
	dim     int
	batches int

	units
	// What every step reuses, built once per grain count: the step's
	// draw, one pair per grain.
	src, tgt [][]int
	pred     []int // Quality's predictions, one pair at a time
}

// NewTextToText constructs the scaled benchmark.
func NewTextToText(seed int64) *TextToText {
	rng := rand.New(rand.NewSource(seed))
	ds := data.NewTranslation(seed+1000, 12, 5)
	vocab := ds.TotalVocab()
	dim := 16
	b := &TextToText{
		emb:     nn.NewEmbedding(rng, vocab, dim),
		enc:     nn.NewTransformerBlock(rng, dim, 32, 2, false),
		dec:     newDecoderBlock(rng, dim, 32, 2),
		proj:    nn.NewLinear(rng, dim, vocab),
		pos:     nn.PositionalEncoding(32, dim),
		ds:      ds,
		vocab:   vocab,
		dim:     dim,
		batches: 24,
	}
	b.opt = optim.NewAdam(b.Module(), 3e-3)
	for i := 0; i < 32; i++ {
		src, tgt := make([]int, ds.SrcLen), make([]int, ds.SrcLen+2)
		ds.Pair(src, tgt)
		b.evalSet = append(b.evalSet, [2][]int{src, tgt})
	}
	b.adopt(b.Module())
	return b
}

// embed looks up tokens and adds positional encodings.
func (b *TextToText) embed(tokens []int) *autograd.Value {
	e := b.emb.Lookup(tokens)
	pe := tensor.NewLike(e.Data)
	for i := range tokens {
		copy(pe.Data[i*b.dim:(i+1)*b.dim], b.pos.Data[i*b.dim:(i+1)*b.dim])
	}
	return autograd.Add(e, autograd.Const(pe))
}

// logits runs the encoder-decoder teacher-forced on one pair: the decoder
// input is tgt[:len-1] and the prediction targets are tgt[1:].
func (b *TextToText) logits(src, tgt []int) (*autograd.Value, []int) {
	memory := b.enc.Forward(b.embed(src))
	decIn := tgt[:len(tgt)-1]
	out := b.dec.Forward(b.embed(decIn), memory)
	return b.proj.Forward(out), tgt[1:]
}

// BeginEpoch implements Benchmark (no per-epoch state).
func (b *TextToText) BeginEpoch() {}

// StepsPerEpoch implements Benchmark: the epoch's 24 pairs in
// steps of one pair per grain — 24 one-pair steps serially, 3
// eight-pair macro-steps sharded (the standard large-batch
// data-parallel recipe), the same data per epoch either way.
func (b *TextToText) StepsPerEpoch(grains int) int { return b.batches / grains }

// ApplyPhase implements Benchmark.
func (b *TextToText) ApplyPhase(int) { b.opt.Step() }

// BeginPhase implements Benchmark: draw the macro-batch of
// translation pairs, one pair per grain.
func (b *TextToText) BeginPhase(_, grains int) int {
	if len(b.src) != grains {
		b.src, b.tgt = make([][]int, grains), make([][]int, grains)
		for g := range b.src {
			b.src[g], b.tgt[g] = make([]int, b.ds.SrcLen), make([]int, b.ds.SrcLen+2)
		}
	}
	for g := range b.src {
		b.ds.Pair(b.src[g], b.tgt[g])
	}
	return grains
}

// Grain implements Benchmark: train pairs [lo,hi) of the draw, each
// weighted by its target length.
func (b *TextToText) Grain(phase, lo, hi int) (float64, int) {
	return b.unitsGrain(phase, lo, hi, b.pairLoss)
}

// pairLoss builds the teacher-forced loss of pair u and returns it with
// the pair's target length.
func (b *TextToText) pairLoss(_, u int) (*autograd.Value, int) {
	lg, want := b.logits(b.src[u], b.tgt[u])
	return autograd.SoftmaxCrossEntropy(lg, want), len(want)
}

// Quality implements Benchmark: teacher-forced next-token accuracy on
// held-out pairs (the paper's Table 3 metric is accuracy, target 55%).
func (b *TextToText) Quality() float64 {
	correct, count := 0, 0
	for _, pair := range b.evalSet {
		b.arena.Reset()
		lg, want := b.logits(pair[0], pair[1])
		b.pred = argmaxRows(b.pred, lg)
		for i := range want {
			if b.pred[i] == want[i] {
				correct++
			}
			count++
		}
	}
	if count == 0 {
		return 0
	}
	return float64(correct) / float64(count)
}

// Module implements Benchmark.
func (b *TextToText) Module() nn.Module {
	return Modules(b.emb, b.enc, paramsOf(b.dec.Params()), b.proj)
}

// textToTextSpec is the paper-scale architecture: Transformer-base (6+6
// layers, d=512, ff=2048, 8 heads) on WMT sequences of length 30.
func textToTextSpec() workload.Model {
	seq, d, ff, heads, vocab := 30, 512, 2048, 8, 32000
	var ls []workload.Layer
	ls = append(ls, workload.Layer{Kind: workload.Embedding, Name: "src_emb", Vocab: vocab, EmbDim: d, Lookups: seq})
	ls = workload.TransformerEncoder(ls, "enc", 6, seq, d, ff, heads)
	// Target embedding and output projection share the source embedding
	// weights (the Vaswani weight-tying setup).
	ls = append(ls, workload.Layer{Kind: workload.Embedding, Name: "tgt_emb", Vocab: vocab, EmbDim: d, Lookups: seq, Tied: true})
	// Decoder: self-attention + cross-attention per block.
	ls = workload.TransformerEncoder(ls, "dec_self", 6, seq, d, ff, heads)
	for i := 0; i < 6; i++ {
		ls = append(ls, workload.Layer{Kind: workload.Attention, Name: "dec_cross", Seq: seq, Dim: d, Heads: heads})
	}
	ls = append(ls, workload.Layer{Kind: workload.Linear, Name: "proj", In: d, Out: vocab, M: seq, Tied: true})
	ls = append(ls, workload.Layer{Kind: workload.Softmax, Name: "softmax", Elems: seq * vocab})
	return workload.Model{Name: "DC-AI-C3 Text-to-Text (Transformer/WMT)", Layers: ls}
}

// paramsOf adapts a parameter slice to nn.Module.
type paramsOf []*nn.Param

func (p paramsOf) Params() []*nn.Param { return p }
