package models

import (
	"math/rand"

	"aibench/internal/autograd"
	"aibench/internal/data"
	"aibench/internal/metrics"
	"aibench/internal/nn"
	"aibench/internal/optim"
	"aibench/internal/workload"
)

// TextSummarization is DC-AI-C14: an attentional encoder-decoder RNN on
// Gigaword, scaled to an LSTM encoder with dot-product attention and an
// LSTM decoder on synthetic (document, headline) pairs; quality is
// Rouge-L of the greedy decode.
type TextSummarization struct {
	stepArena
	singlePhase
	emb     *nn.Embedding
	enc     *nn.LSTMCell
	dec     *nn.LSTMCell
	attnW   *nn.Linear
	proj    *nn.Linear
	opt     optim.Optimizer
	ds      *data.Summarization
	vocab   int
	hidden  int
	batches int
	maxHead int
}

// NewTextSummarization constructs the scaled benchmark.
func NewTextSummarization(seed int64) *TextSummarization {
	rng := rand.New(rand.NewSource(seed))
	ds := data.NewSummarization(seed+1000, 14, 10, 5)
	vocab := ds.TotalVocab()
	hidden := 18
	b := &TextSummarization{
		emb:     nn.NewEmbedding(rng, vocab, hidden),
		enc:     nn.NewLSTMCell(rng, hidden, hidden),
		dec:     nn.NewLSTMCell(rng, hidden, hidden),
		attnW:   nn.NewLinear(rng, 2*hidden, hidden),
		proj:    nn.NewLinear(rng, hidden, vocab),
		ds:      ds,
		vocab:   vocab,
		hidden:  hidden,
		batches: 16,
		maxHead: 5,
	}
	b.opt = optim.NewAdam(b.Module(), 3e-3)
	b.adopt(b.Module())
	return b
}

// Name implements Benchmark.
func (b *TextSummarization) Name() string { return "Text Summarization" }

// encode runs the encoder over the document, returning all hidden states
// [T, H] and the final state.
func (b *TextSummarization) encode(doc []int) (states *autograd.Value, h, c *autograd.Value) {
	h, c = b.enc.InitState(1)
	var outs []*autograd.Value
	for _, tok := range doc {
		x := b.emb.Lookup([]int{tok})
		h, c = b.enc.Step(x, h, c)
		outs = append(outs, h)
	}
	return autograd.Concat(outs...), h, c
}

// attend computes dot-product attention of the decoder state over
// encoder states and returns the combined context+state feature.
func (b *TextSummarization) attend(state, encStates *autograd.Value) *autograd.Value {
	// scores: [1,T] = state · encStatesᵀ
	scores := autograd.MatMul(state, autograd.Transpose(encStates))
	weights := autograd.SoftmaxRows(scores)
	context := autograd.MatMul(weights, encStates) // [1, H]
	return autograd.Tanh(b.attnW.Forward(autograd.ConcatCols(state, context)))
}

// stepLogits runs one decoder step with attention.
func (b *TextSummarization) stepLogits(tok int, h, c, encStates *autograd.Value) (*autograd.Value, *autograd.Value, *autograd.Value) {
	x := b.emb.Lookup([]int{tok})
	h2, c2 := b.dec.Step(x, h, c)
	feat := b.attend(h2, encStates)
	return b.proj.Forward(feat), h2, c2
}

// BeginEpoch implements Benchmark (no per-epoch state).
func (b *TextSummarization) BeginEpoch() {}

// StepsPerEpoch implements Benchmark: the epoch's 16 pairs in steps of
// one pair per grain — 16 one-pair steps serially, 2 eight-pair
// macro-steps sharded, the same data per epoch either way.
func (b *TextSummarization) StepsPerEpoch(grains int) int { return b.batches / grains }

// ApplyPhase implements Benchmark.
func (b *TextSummarization) ApplyPhase(int) { b.opt.Step() }

// BeginPhase implements Benchmark: draw the macro-batch of (document,
// headline) pairs, one grain per pair, each trained with teacher-forced
// cross-entropy and weighted by its target length.
func (b *TextSummarization) BeginPhase(_, grains int) []Grain {
	gs := make([]Grain, grains)
	for g := range gs {
		doc, head := b.ds.Pair()
		gs[g] = func() (float64, int) {
			encStates, h, c := b.encode(doc)
			var losses []*autograd.Value
			for t := 0; t+1 < len(head); t++ {
				var logits *autograd.Value
				logits, h, c = b.stepLogits(head[t], h, c, encStates)
				losses = append(losses, autograd.SoftmaxCrossEntropy(logits, []int{head[t+1]}))
			}
			loss := meanLoss(losses)
			loss.Backward()
			return loss.Item(), len(losses)
		}
	}
	return gs
}

// greedyDecode generates a headline for a document.
func (b *TextSummarization) greedyDecode(doc []int) []int {
	encStates, h, c := b.encode(doc)
	tok := data.BosToken
	var out []int
	for t := 0; t < b.maxHead+2; t++ {
		var logits *autograd.Value
		logits, h, c = b.stepLogits(tok, h, c, encStates)
		tok = argmaxRows(logits)[0]
		if tok == data.EosToken {
			break
		}
		out = append(out, tok)
	}
	return out
}

// Quality implements Benchmark: mean Rouge-L against the reference
// headlines (paper target: 41 Rouge-L, i.e. 0.41).
func (b *TextSummarization) Quality() float64 {
	total := 0.0
	const docs = 12
	for i := 0; i < docs; i++ {
		b.arena.Reset()
		doc, _ := b.ds.Pair()
		ref := b.ds.Reference(doc)
		hyp := b.greedyDecode(doc)
		total += metrics.RougeL(hyp, ref)
	}
	return total / docs
}

// LowerIsBetter implements Benchmark.
func (b *TextSummarization) LowerIsBetter() bool { return false }

// ScaledTarget implements Benchmark (paper target: 41 Rouge-L).
func (b *TextSummarization) ScaledTarget() float64 { return 0.41 }

// Module implements Benchmark.
func (b *TextSummarization) Module() nn.Module {
	return Modules(b.emb, b.enc, b.dec, b.attnW, b.proj)
}

// Spec implements Benchmark: the off-the-shelf attentional
// encoder-decoder RNN (2-layer 400-unit encoder/decoder, 69k vocabulary)
// on Gigaword-length inputs.
func (b *TextSummarization) Spec() workload.Model {
	docLen, headLen, d, hidden, vocab := 50, 15, 200, 400, 69000
	var ls []workload.Layer
	ls = append(ls,
		workload.Layer{Kind: workload.Embedding, Name: "emb", Vocab: vocab, EmbDim: d, Lookups: docLen + headLen},
		workload.Layer{Kind: workload.LSTM, Name: "enc1", SeqLen: docLen, Input: d, Hidden: hidden},
		workload.Layer{Kind: workload.LSTM, Name: "enc2", SeqLen: docLen, Input: hidden, Hidden: hidden},
		workload.Layer{Kind: workload.Attention, Name: "attn", Seq: docLen, Dim: hidden, Heads: 1},
		workload.Layer{Kind: workload.LSTM, Name: "dec1", SeqLen: headLen, Input: d + hidden, Hidden: hidden},
		workload.Layer{Kind: workload.Linear, Name: "proj", In: hidden, Out: vocab, M: headLen},
		workload.Layer{Kind: workload.Softmax, Name: "softmax", Elems: headLen * vocab},
	)
	return workload.Model{Name: "DC-AI-C14 Text Summarization (Seq2Seq/Gigaword)", Layers: ls}
}
