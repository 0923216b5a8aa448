package models

import (
	"math"
	"math/rand"

	"aibench/internal/autograd"
	"aibench/internal/data"
	"aibench/internal/nn"
	"aibench/internal/optim"
	"aibench/internal/tensor"
	"aibench/internal/workload"
)

// ImageToText is DC-AI-C4: the Neural Image Caption model (vision CNN
// followed by a language-generating LSTM) on MS-COCO, scaled to a mini
// CNN encoder plus LSTM decoder on synthetic captioned images.
type ImageToText struct {
	stepArena
	singlePhase
	encoder *miniResNet
	imgProj *nn.Linear
	emb     *nn.Embedding
	lstm    *nn.LSTMCell
	proj    *nn.Linear
	opt     optim.Optimizer
	ds      *data.Captioning
	vocab   int
	hidden  int
	batches int
	// The step's images, their classes and captions.
	x      *tensor.Tensor
	labels []int
	caps   [][]int
}

// NewImageToText constructs the scaled benchmark.
func NewImageToText(seed int64) *ImageToText {
	rng := rand.New(rand.NewSource(seed))
	vocab := 12 + data.FirstWordToken
	hidden := 16
	enc := newMiniResNet(rng, 1, 6, 4)
	b := &ImageToText{
		encoder: enc,
		imgProj: nn.NewLinear(rng, 12, hidden),
		emb:     nn.NewEmbedding(rng, vocab, hidden),
		lstm:    nn.NewLSTMCell(rng, hidden, hidden),
		proj:    nn.NewLinear(rng, hidden, vocab),
		ds:      data.NewCaptioning(seed+1000, 6, 1, 8, 8, 12, 4),
		vocab:   vocab,
		hidden:  hidden,
		batches: 12,
		labels:  make([]int, 12),
		caps:    make([][]int, 12),
	}
	b.opt = optim.NewAdam(b.Module(), 2e-3)
	b.adopt(b.Module())
	return b
}

// captionNLL computes the teacher-forced negative log-likelihood (nats
// per token) of captions for an image batch. When train is set the
// returned loss node carries gradients.
func (b *ImageToText) captionNLL(x *tensor.Tensor, captions [][]int, train bool) *autograd.Value {
	n := x.Dim(0)
	feat := b.encoder.Features(autograd.Const(x)) // [n, 12]
	h := autograd.Tanh(b.imgProj.Forward(feat))
	c := autograd.Const(tensor.New(n, b.hidden))
	// All captions share length (BOS + body + EOS by construction).
	capLen := len(captions[0])
	var losses []*autograd.Value
	for t := 0; t+1 < capLen; t++ {
		ids := make([]int, n)
		targets := make([]int, n)
		for i := range captions {
			ids[i] = captions[i][t]
			targets[i] = captions[i][t+1]
		}
		xin := b.emb.Lookup(ids)
		h, c = b.lstm.Step(xin, h, c)
		logits := b.proj.Forward(h)
		losses = append(losses, autograd.SoftmaxCrossEntropy(logits, targets))
	}
	return meanLoss(losses)
}

// BeginEpoch implements Benchmark.
func (b *ImageToText) BeginEpoch() { b.encoder.SetTraining(true) }

// StepsPerEpoch implements Benchmark.
func (b *ImageToText) StepsPerEpoch(int) int { return b.batches }

// ApplyPhase implements Benchmark.
func (b *ImageToText) ApplyPhase(int) { b.opt.Step() }

// BeginPhase implements Benchmark: draw the captioned macro-batch.
func (b *ImageToText) BeginPhase(int, int) int {
	b.x = b.ds.Pair(b.Arena(), b.labels, b.caps)
	return len(b.caps)
}

// Grain implements Benchmark: caption images [lo,hi) of the draw.
func (b *ImageToText) Grain(_, lo, hi int) (float64, int) {
	return backward(b.captionNLL(b.x.SliceRows(lo, hi), b.caps[lo:hi], true), hi-lo)
}

// Buffers implements Buffered: the encoder's batch-norm running
// statistics.
func (b *ImageToText) Buffers() []*tensor.Tensor { return b.encoder.Buffers() }

// Quality implements Benchmark: caption perplexity on held-out images
// (the paper's metric, target 4.2).
func (b *ImageToText) Quality() float64 {
	b.arena.Reset()
	b.encoder.SetTraining(false)
	caps := make([][]int, 24)
	x := b.ds.Pair(b.Arena(), make([]int, 24), caps)
	nll := b.captionNLL(x, caps, false)
	return math.Exp(nll.Item())
}

// Module implements Benchmark.
func (b *ImageToText) Module() nn.Module {
	return Modules(b.encoder, b.imgProj, b.emb, b.lstm, b.proj)
}

// imageToTextSpec is the paper-scale architecture: the paper calls
// Image-to-Text the most complex model (68.4M learnable parameters): an
// Inception-style vision CNN followed by a 512-unit LSTM with a large
// vocabulary softmax.
func imageToTextSpec() workload.Model {
	var ls []workload.Layer
	var oh, ow int
	// Inception-style encoder approximated as a deep conv stack at 299².
	ls, oh, ow = workload.ConvBNReLU(ls, "stem1", 3, 32, 3, 2, 299, 299)
	ls, oh, ow = workload.ConvBNReLU(ls, "stem2", 32, 64, 3, 1, oh, ow)
	ls = append(ls, workload.Layer{Kind: workload.Pool, Name: "pool1", InC: 64, Kernel: 3, Stride: 2, H: oh, W: ow})
	oh, ow = (oh+1)/2, (ow+1)/2
	widths := []int{128, 256, 512, 768, 1024}
	in := 64
	for i, wd := range widths {
		stride := 2
		ls, oh, ow = workload.ConvBNReLU(ls, "inc"+string(rune('a'+i))+"1", in, wd, 3, stride, oh, ow)
		ls, oh, ow = workload.ConvBNReLU(ls, "inc"+string(rune('a'+i))+"2", wd, wd, 3, 1, oh, ow)
		in = wd
	}
	ls = append(ls, workload.Layer{Kind: workload.Pool, Name: "gap", InC: 1024, Kernel: oh, Stride: oh, H: oh, W: ow})
	// Language model: 38k vocabulary, 512-dim embedding + LSTM + softmax.
	seq, vocab, d := 20, 38000, 512
	ls = append(ls,
		workload.Layer{Kind: workload.Linear, Name: "img_proj", In: 1024, Out: d},
		workload.Layer{Kind: workload.Embedding, Name: "word_emb", Vocab: vocab, EmbDim: d, Lookups: seq},
		workload.Layer{Kind: workload.LSTM, Name: "decoder", SeqLen: seq, Input: d, Hidden: d},
		workload.Layer{Kind: workload.Linear, Name: "word_proj", In: d, Out: vocab, M: seq},
		workload.Layer{Kind: workload.Softmax, Name: "softmax", Elems: seq * vocab},
	)
	return workload.Model{Name: "DC-AI-C4 Image-to-Text (NIC/MS-COCO)", Layers: ls}
}
